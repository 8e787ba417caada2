// Command nabnode runs one NAB node as its own OS process in a
// multi-process cluster: peers dial full-mesh TCP links from a shared
// cluster.json, the pipelined runtime drives only the locally hosted
// node, and committed results stream to stdout as JSON lines. Outputs
// are byte-identical to the single-process lockstep runner.
//
// Run one node (repeat per node of the cluster):
//
//	nabnode -cluster cluster.json -id 3
//
// Or bring up a whole local cluster — one child process per node — with
// one command (writes the generated config next to the workload flags):
//
//	nabnode -spawn-local -topo k4 -f 1 -len 24 -q 8 -adversary 3=alarm
//
// Per committed instance, a node process emits
//
//	{"node":3,"instance":1,"outputs":{"3":"..."},"mismatch":false,"phase3":false}
//
// (outputs base64-keyed by hosted node, fault-free hosts only), and on
// completion a summary line {"node":3,"done":true,...}. The -spawn-local
// parent relays every child's lines and exits non-zero if any child
// fails.
//
// Liveness: NAB is a synchronous-model protocol — crash faults are part
// of the fault model only as scripted in-protocol adversaries ("crash"),
// whose processes keep pacing the rounds. A node PROCESS that dies
// outside the model (kill -9, host loss) stalls the remaining peers.
// With -wal DIR the stall is recoverable: each process appends its
// accepted submissions and commits to a write-ahead log, and a killed
// process restarted with the same flags replays its log, re-pins its
// mesh links, and rejoins mid-stream — the cluster rolls back to its
// common committed watermark, re-drives the lost frames, and the merged
// commit sequence stays byte-identical to the uninterrupted run (commits
// replayed from the log are re-emitted, so the restarted process's
// output stream is complete). Without -wal, supervise processes
// externally and restart the run.
//
// State sync: a process whose WAL is LOST (disk replacement, host
// rebuild) restarts blank with -join. Instead of replaying history it
// announces itself, installs the snapshot at an agreed boundary that f+1
// peers pushed byte-identically over the control plane — so up to f
// Byzantine snapshot servers cannot forge state — and enters the stream
// there, re-executing the instances above the boundary live. Rolling
// restarts (drain, snapshot, restart, join every process in sequence)
// keep the cluster byte-identical to an uninterrupted run.
//
// Observability: -admin ADDR (node mode) serves /metrics (Prometheus
// text exposition), /healthz (engine liveness + WAL sync lag) and
// /debug/pprof; -admin-base PORT (spawn mode) gives node v's child the
// admin endpoint 127.0.0.1:PORT+v, so a live cluster is scrapable per
// process. -flight N arms the per-process flight recorder (spawn mode
// propagates it to every child): GET /debug/flight downloads the ring
// as a binary dump, tools/nabtrace merges the per-process dumps into a
// Chrome trace, and anomalies (dispute barriers, digest tripwires,
// rejoin/join entry) drop black-box dumps next to each WAL. Rejoin, join
// and reconnect rounds, WAL recovery and mesh link drops and redials are
// flight events on each process's control lane.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nab"
	"nab/internal/admin"
	"nab/internal/cluster"
	"nab/internal/graph"
	"nab/internal/topo"
)

// maxHealthyWALLag is the /healthz threshold on appended-but-unsynced
// WAL records; the group-commit syncer keeps it near zero in a healthy
// process.
const maxHealthyWALLag = 4096

// instanceLine is one committed instance on stdout.
type instanceLine struct {
	Node     graph.NodeID            `json:"node"`
	Instance int                     `json:"instance"`
	Outputs  map[graph.NodeID][]byte `json:"outputs"`
	Mismatch bool                    `json:"mismatch"`
	Phase3   bool                    `json:"phase3"`
}

// summaryLine closes a node's stream.
type summaryLine struct {
	Node      graph.NodeID `json:"node"`
	Done      bool         `json:"done"`
	Instances int          `json:"instances"`
	WallSecs  float64      `json:"wallSecs"`
	Replays   int          `json:"replays"`
	Dropped   int64        `json:"dropped"`
	Disputes  string       `json:"disputes"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nabnode:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nabnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgPath := fs.String("cluster", "", "cluster.json path (node mode: required)")
	id := fs.Int("id", 0, "node id this process hosts (node mode)")
	spawn := fs.Bool("spawn-local", false, "generate a loopback cluster config and spawn one child process per node")
	topoName := fs.String("topo", "k4", "spawn mode: built-in topology: "+strings.Join(topo.Names(), ", "))
	file := fs.String("file", "", "spawn mode: topology file (overrides -topo)")
	source := fs.Int("source", 1, "spawn mode: source node id")
	f := fs.Int("f", 1, "spawn mode: fault bound")
	lenBytes := fs.Int("len", 24, "spawn mode: input length in bytes")
	q := fs.Int("q", 8, "spawn mode: instances to broadcast")
	window := fs.Int("window", 4, "spawn mode: pipeline window")
	seed := fs.Int64("seed", 7, "spawn mode: seed for coding matrices and workload")
	out := fs.String("out", "", "spawn mode: write the generated cluster.json here (default: temp file)")
	walDir := fs.String("wal", "", "durable WAL directory: node mode appends this process's log there and recovers from it on restart; spawn mode gives each child <dir>/node-<id>")
	join := fs.Bool("join", false, "node mode: join the live cluster as a blank process — fetch a digest-validated snapshot from f+1 peers instead of replaying local history (requires -wal with an empty directory)")
	snapEvery := fs.Int("snapshot-interval", 0, "spawn mode: join-round snapshot boundary granularity written into the generated cluster.json (0 = default)")
	chaosPath := fs.String("chaos", "", "spawn mode: chaos physics spec (JSON ChaosConfig) injected into every child via the generated cluster.json")
	adminAddr := fs.String("admin", "", "node mode: serve /metrics (Prometheus text), /healthz and /debug/pprof on this address")
	adminBase := fs.Int("admin-base", 0, "spawn mode: give each child an admin endpoint on 127.0.0.1:<base+id>")
	flightCap := fs.Int("flight", 0, "arm the flight recorder with a ring of N events per process (spawn mode propagates it to every child); dump via /debug/flight, anomalies drop black-box dumps in the WAL dir")
	advs := cluster.AdversarySpecs{}
	fs.Var(advs, "adversary", "spawn mode, node=strategy (repeatable): crash, flip, coded, alarm, suppress, random[:<seed>]")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *spawn {
		chaos, err := loadChaos(*chaosPath)
		if err != nil {
			return err
		}
		return spawnLocal(stdout, stderr, *topoName, *file, *source, *f, *lenBytes, *q, *window, *seed, *out, *walDir, *adminBase, *snapEvery, *flightCap, advs, chaos)
	}
	if *chaosPath != "" {
		return fmt.Errorf("-chaos is a spawn-mode flag; node mode inherits the spec from cluster.json")
	}
	if *snapEvery != 0 {
		return fmt.Errorf("-snapshot-interval is a spawn-mode flag; node mode inherits the boundary from cluster.json")
	}
	if *cfgPath == "" {
		return fmt.Errorf("either -cluster with -id (node mode) or -spawn-local is required")
	}
	if *join && *walDir == "" {
		return fmt.Errorf("-join requires -wal: the joined state must land in a durable log")
	}
	cfg, err := cluster.Load(*cfgPath)
	if err != nil {
		return err
	}
	rsv, err := inheritedListeners(cfg, graph.NodeID(*id))
	if err != nil {
		return err
	}
	return runNode(cfg, graph.NodeID(*id), stdout, rsv, *walDir, *adminAddr, *join, *flightCap)
}

// inheritedListeners rebuilds the listeners a -spawn-local parent handed
// down as file descriptors (NABNODE_MESH_FD for the mesh endpoint,
// NABNODE_CTRL_FD for the coordinator's control plane), so the child
// serves exactly the sockets the parent reserved — no release-then-rebind
// window. Returns nil when the process was started without a handoff.
func inheritedListeners(cfg *cluster.Config, id graph.NodeID) (*cluster.Reservation, error) {
	meshFD, ctrlFD := os.Getenv("NABNODE_MESH_FD"), os.Getenv("NABNODE_CTRL_FD")
	if meshFD == "" && ctrlFD == "" {
		return nil, nil
	}
	spec, ok := cfg.Spec(id)
	if !ok {
		return nil, fmt.Errorf("node %d has no spec", id)
	}
	rsv := cluster.NewReservation()
	adopt := func(env, addr string) error {
		if env == "" {
			return nil
		}
		fd, err := strconv.Atoi(env)
		if err != nil {
			return fmt.Errorf("bad listener fd %q: %w", env, err)
		}
		f := os.NewFile(uintptr(fd), addr)
		l, err := net.FileListener(f)
		f.Close() // FileListener dups; drop the inherited descriptor
		if err != nil {
			return fmt.Errorf("adopt listener fd %d for %s: %w", fd, addr, err)
		}
		rsv.Add(addr, l)
		return nil
	}
	if err := adopt(meshFD, spec.Addr); err != nil {
		return nil, err
	}
	if err := adopt(ctrlFD, cfg.CtrlAddr); err != nil {
		return nil, err
	}
	return rsv, nil
}

// runNode is node mode: open a streaming session as the cluster host of
// node id, feed it the configured workload, relay commits as JSON lines,
// print the summary. A non-empty walDir makes the session durable: a
// restarted process recovers its log (already-committed instances are
// re-emitted) and rejoins the cluster mid-stream. With join set the
// process starts blank instead — it announces itself, installs the
// snapshot f+1 peers pushed byte-identically over the control plane, and
// enters the stream at the snapshot boundary without replaying history;
// the whole round rewinds there, so the joiner re-executes the instances
// above the boundary live and its re-built commit chain is checked
// against the quorum's digest. Instances below the boundary are never
// emitted by this process; peers that committed them carry the record.
func runNode(cfg *cluster.Config, id graph.NodeID, stdout io.Writer, rsv *cluster.Reservation, walDir, adminAddr string, join bool, flightCap int) error {
	ctx := context.Background()
	opts := []nab.SessionOption{nab.WithCluster(cfg, id, nab.ClusterOptions{Reservation: rsv, Join: join})}
	if walDir != "" {
		opts = append(opts, nab.Recover(walDir))
	}
	if flightCap > 0 {
		opts = append(opts, nab.WithFlightRecorder(flightCap))
	}
	sess, err := nab.Open(ctx, nab.Config{}, opts...)
	if err != nil {
		return err
	}
	defer sess.Close()
	if adminAddr != "" {
		adm, err := admin.Serve(adminAddr, admin.Options{Checks: []admin.Check{
			{Name: "engine", Probe: sess.Err},
			{Name: "wal", Probe: func() error {
				if lag := sess.WALSyncLag(); lag > maxHealthyWALLag {
					return fmt.Errorf("sync lag %d records", lag)
				}
				return nil
			}},
		}})
		if err != nil {
			return err
		}
		defer adm.Close()
	}
	go func() {
		inputs := cfg.Inputs()
		// A recovered session has already accounted for a prefix of the
		// deterministic workload — committed instances replay from the
		// log, uncommitted accepted ones re-enter the stream directly.
		if skip := int(sess.RecoveredSeq()); skip > 0 {
			if skip > len(inputs) {
				skip = len(inputs)
			}
			inputs = inputs[skip:]
		}
		for _, in := range inputs {
			if _, err := sess.Submit(ctx, in); err != nil {
				return // the terminal error surfaces via sess.Err
			}
		}
		sess.Drain(ctx)
	}()
	enc := json.NewEncoder(stdout)
	for c := range sess.Commits() {
		if err := enc.Encode(instanceLine{
			Node: id, Instance: c.Result.K, Outputs: c.Result.Outputs,
			Mismatch: c.Result.Mismatch, Phase3: c.Result.Phase3,
		}); err != nil {
			return err
		}
	}
	if err := sess.Err(); err != nil {
		return err
	}
	res := sess.Result()
	return enc.Encode(summaryLine{
		Node: id, Done: true, Instances: res.Committed(),
		WallSecs: res.Wall.Seconds(), Replays: res.Replays,
		Dropped: sess.Cluster().Dropped(), Disputes: sess.Disputes().String(),
	})
}

// childExtras dups node v's reserved listeners out of rsv for handing to
// its child process: the mesh endpoint always, plus the control-plane
// endpoint when v's process hosts the source (the coordinator). Returns
// the files for exec.Cmd.ExtraFiles and the matching NABNODE_*_FD env
// entries (ExtraFiles[0] becomes fd 3 in the child).
func childExtras(rsv *cluster.Reservation, cfg *cluster.Config, v graph.NodeID) ([]*os.File, []string, error) {
	spec, ok := cfg.Spec(v)
	if !ok {
		return nil, nil, fmt.Errorf("node %d has no spec", v)
	}
	mesh, err := rsv.File(spec.Addr)
	if err != nil {
		return nil, nil, err
	}
	files := []*os.File{mesh}
	env := []string{"NABNODE_MESH_FD=3"}
	if v == cfg.Source {
		ctrl, err := rsv.File(cfg.CtrlAddr)
		if err != nil {
			mesh.Close()
			return nil, nil, err
		}
		files = append(files, ctrl)
		env = append(env, "NABNODE_CTRL_FD=4")
	}
	return files, env, nil
}

// spawnLocal generates a loopback config (every node its own process) and
// supervises one child nabnode per node. The parent reserves every
// endpoint as a held listener and hands the sockets to the children as
// inherited descriptors, so no port can be lost between reservation and
// boot.
func spawnLocal(stdout, stderr io.Writer, topoName, file string, source, f, lenBytes, q, window int, seed int64, out, walDir string, adminBase, snapEvery, flightCap int, advs cluster.AdversarySpecs, chaos *nab.ChaosConfig) error {
	g, err := topo.Load(file, topoName)
	if err != nil {
		return err
	}
	nodes := g.Nodes()
	rsv, err := cluster.ReserveAddrs(len(nodes) + 1)
	if err != nil {
		return err
	}
	defer rsv.Close()
	addrs := rsv.Addrs()
	cfg := &cluster.Config{
		Topology: g.Marshal(), Source: graph.NodeID(source), F: f,
		LenBytes: lenBytes, Seed: seed, Window: window, Instances: q,
		CtrlAddr:         addrs[len(nodes)],
		SnapshotInterval: snapEvery,
		Chaos:            chaos,
	}
	for i, v := range nodes {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeSpec{ID: v, Addr: addrs[i], Adversary: advs[v]})
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if out == "" {
		tmp, err := os.CreateTemp("", "nabnode-cluster-*.json")
		if err != nil {
			return err
		}
		out = tmp.Name()
		tmp.Close()
		defer os.Remove(out)
	}
	if err := cfg.Save(out); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "nabnode: spawning %d node processes (cluster config: %s)\n", len(nodes), out)

	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	var wg sync.WaitGroup
	var cmds []*exec.Cmd
	failed := make(chan error, len(nodes)) // never blocks a child's waiter
	// stop kills every started child and reaps it. A child that dies
	// leaves its peers waiting for its frames forever, so its death must
	// take the whole cluster down, and so must a failed spawn.
	stop := func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // fails only for a child that already exited
		}
		wg.Wait()
	}
	var outMu sync.Mutex
	childErr := &syncWriter{w: stderr} // children's stderr copies run concurrently
	for _, v := range nodes {
		files, env, err := childExtras(rsv, cfg, v)
		if err != nil {
			stop()
			return err
		}
		args := []string{"-cluster", out, "-id", fmt.Sprint(v)}
		if walDir != "" {
			args = append(args, "-wal", filepath.Join(walDir, fmt.Sprintf("node-%d", v)))
		}
		if adminBase > 0 {
			// Predictable per-node admin ports: node v scrapes at base+v.
			args = append(args, "-admin", fmt.Sprintf("127.0.0.1:%d", adminBase+int(v)))
		}
		if flightCap > 0 {
			args = append(args, "-flight", fmt.Sprint(flightCap))
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(append(os.Environ(), "NABNODE_CHILD=1"), env...)
		cmd.ExtraFiles = files
		cmd.Stderr = childErr
		pipe, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		for _, f := range files {
			f.Close() // the child owns the sockets now
		}
		if err != nil {
			stop()
			return fmt.Errorf("spawn node %d: %w", v, err)
		}
		cmds = append(cmds, cmd)
		wg.Add(1)
		go func(v graph.NodeID) {
			defer wg.Done()
			sc := bufio.NewScanner(pipe)
			sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
			for sc.Scan() {
				outMu.Lock()
				fmt.Fprintln(stdout, sc.Text())
				outMu.Unlock()
			}
			if err := cmd.Wait(); err != nil {
				failed <- fmt.Errorf("node %d process: %w", v, err)
			}
		}(v)
	}
	go func() {
		wg.Wait()
		close(failed)
	}()
	if err, ok := <-failed; ok {
		stop()
		return err
	}
	wall := time.Since(start)
	fmt.Fprintf(stderr, "nabnode: %d processes x %d instances in %.2fs (%.1f inst/s cluster-wide)\n",
		len(nodes), q, wall.Seconds(), float64(q)/wall.Seconds())
	return nil
}

// syncWriter serializes the children's interleaved writes to one sink.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// loadChaos reads a ChaosConfig JSON spec (see transport.ChaosConfig for
// the schema; durations are "50ms"-style strings). The spec lands in the
// generated cluster.json so every child injects the same seeded physics.
func loadChaos(path string) (*nab.ChaosConfig, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := &nab.ChaosConfig{}
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("chaos spec %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("chaos spec %s: %w", path, err)
	}
	return cfg, nil
}
