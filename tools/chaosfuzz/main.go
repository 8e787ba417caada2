// Command chaosfuzz is the seeded scenario fuzzer for the chaos network
// layer: each fuzz seed deterministically generates a full scenario —
// topology, Byzantine adversary cast, chaos physics (latency, jitter,
// reorder windows, an optional healing partition, slow links) and an
// engine composition (pipelined bus, loopback TCP, in-process cluster, a
// durable kill + recover cycle, or a membership-churn cluster where
// processes are killed mid-stream and blank-join back through snapshot
// transfers) — runs it, and asserts the committed sequence and dispute
// set are byte-identical to the chaos-free lockstep oracle. The protocol
// assumes an asynchronous-but-reliable network, so no generated physics
// may change what commits.
//
// Sweep a seed range (exit non-zero on the first divergence):
//
//	go run ./tools/chaosfuzz -seeds 16
//
// Replay one scenario, either by seed or from a recorded fixture:
//
//	go run ./tools/chaosfuzz -seed 7
//	go run ./tools/chaosfuzz -replay tools/chaosfuzz/fixtures/partition-flip.json
//
// A failing seed is written to -record DIR (default fixtures live in
// tools/chaosfuzz/fixtures and replay in CI), so every bug the fuzzer
// flushes out becomes a deterministic regression test.
//
// A single-scenario run (-seed or -replay) arms the flight recorder. When
// the scenario fails, its dump goes to -record DIR (or the system temp
// directory) as chaosfuzz-<label>.dump, and the path is printed for
// tools/nabtrace:
//
//	go run ./tools/nabtrace /tmp/chaosfuzz-seed-9.dump
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nab"
	"nab/internal/cluster"
	"nab/internal/flight"
	"nab/internal/topo"
)

// traceEvents is the flight ring a single-scenario run records into:
// enough for the longest churn scenario's frames on every process.
const traceEvents = 1 << 18

// Scenario is one fully-specified fuzz case — everything needed to replay
// it deterministically from a fixture file.
type Scenario struct {
	Name     string `json:"name,omitempty"`
	FuzzSeed int64  `json:"fuzzSeed"`
	// Topology names a built-in topology (internal/topo).
	Topology string     `json:"topology"`
	Source   nab.NodeID `json:"source"`
	F        int        `json:"f"`
	LenBytes int        `json:"lenBytes"`
	// Seed feeds the protocol's coding matrices (not the chaos layer).
	Seed   int64 `json:"seed"`
	Window int   `json:"window"`
	Q      int   `json:"q"`
	// Adversaries maps node ids to scripted strategies (cluster.json
	// syntax: crash, flip, coded, alarm, suppress, random:<seed>).
	Adversaries map[nab.NodeID]string `json:"adversaries,omitempty"`
	Chaos       *nab.ChaosConfig      `json:"chaos"`
	// Engine is pipelined, tcp, cluster, kill-recover, or one of the
	// membership-churn engines over a durable in-process cluster:
	// churn-join (kill one process mid-stream, wipe its WAL, blank-join it
	// back through a snapshot transfer), churn-join-kill (blank join, then
	// crash-and-recover a second process once the joiner is live), and
	// churn-rolling (restart every process in sequence — the source host
	// recovers its WAL, the rest blank-join).
	Engine string `json:"engine"`
	// KillAfter (kill-recover and churn engines): abortively close the
	// first victim's session after this many commits.
	KillAfter int `json:"killAfter,omitempty"`
	// SnapEvery (churn engines): the cluster's SnapshotInterval — the
	// snapshot boundary granularity join rounds rewind to.
	SnapEvery int `json:"snapEvery,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "chaosfuzz:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("chaosfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 0, "sweep fuzz seeds start..start+seeds-1")
	start := fs.Int64("start", 1, "first fuzz seed of a -seeds sweep")
	seed := fs.Int64("seed", 0, "run the single scenario generated by this fuzz seed")
	replay := fs.String("replay", "", "replay one recorded scenario fixture (JSON)")
	fixtures := fs.String("fixtures", "", "replay every *.json fixture in this directory")
	record := fs.String("record", "", "write each failing scenario to this directory as a replayable fixture")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scs []*Scenario
	switch {
	case *replay != "":
		sc, err := loadScenario(*replay)
		if err != nil {
			return err
		}
		scs = append(scs, sc)
	case *fixtures != "":
		matches, err := filepath.Glob(filepath.Join(*fixtures, "*.json"))
		if err != nil {
			return err
		}
		if len(matches) == 0 {
			return fmt.Errorf("no fixtures in %s", *fixtures)
		}
		sort.Strings(matches)
		for _, m := range matches {
			sc, err := loadScenario(m)
			if err != nil {
				return err
			}
			scs = append(scs, sc)
		}
	case *seed != 0:
		scs = append(scs, Generate(*seed))
	case *seeds > 0:
		for s := *start; s < *start+int64(*seeds); s++ {
			scs = append(scs, Generate(s))
		}
	default:
		fs.Usage()
		return fmt.Errorf("one of -seeds, -seed, -replay or -fixtures is required")
	}

	trace := *seed != 0 || *replay != ""
	if trace {
		flight.Default().Enable(traceEvents)
		flight.Default().SetLabel("chaosfuzz")
		defer flight.Default().Disable()
	}
	failed := 0
	for _, sc := range scs {
		t0 := time.Now()
		err := Run(sc)
		if err == nil {
			fmt.Fprintf(stdout, "ok   %-24s engine=%-12s topo=%-6s q=%-2d (%.2fs)\n",
				sc.label(), sc.Engine, sc.Topology, sc.Q, time.Since(t0).Seconds())
			continue
		}
		failed++
		fmt.Fprintf(stdout, "FAIL %-24s engine=%-12s topo=%-6s q=%-2d: %v\n",
			sc.label(), sc.Engine, sc.Topology, sc.Q, err)
		if *record != "" {
			path, werr := sc.record(*record)
			if werr != nil {
				return fmt.Errorf("record failing scenario: %w", werr)
			}
			fmt.Fprintf(stdout, "     recorded %s — replay with: go run ./tools/chaosfuzz -replay %s\n", path, path)
		}
		if trace {
			path, werr := sc.dump(*record)
			if werr != nil {
				return fmt.Errorf("write flight dump: %w", werr)
			}
			fmt.Fprintf(stdout, "     flight dump %s — trace it with: go run ./tools/nabtrace %s\n", path, path)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios diverged from the lockstep oracle", failed, len(scs))
	}
	return nil
}

func (sc *Scenario) label() string {
	if sc.Name != "" {
		return sc.Name
	}
	return fmt.Sprintf("seed-%d", sc.FuzzSeed)
}

func (sc *Scenario) record(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.json", sc.label()))
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// dump writes the flight recorder's contents to dir (the system temp
// directory when empty) as chaosfuzz-<label>.dump.
func (sc *Scenario) dump(dir string) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "chaosfuzz-"+sc.label()+".dump")
	return path, os.WriteFile(path, flight.Default().DumpBytes("diverged", time.Now().UnixNano()), 0o644)
}

func loadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{}
	if err := json.Unmarshal(data, sc); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", path, err)
	}
	if sc.Name == "" {
		sc.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return sc, nil
}

// rng is the same SplitMix64 chain the chaos layer itself draws from —
// stdlib-free, stable across Go releases, so a fixture generated today
// replays the same scenario forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) unit() float64  { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) ms(lo, hi int) nab.ChaosDuration {
	return nab.ChaosDuration(time.Duration(lo+r.intn(hi-lo+1)) * time.Millisecond)
}

// fuzzTopos are the built-in topologies (internal/topo) scenarios draw
// from. Each runs at the largest fault bound it admits, and every node but
// the source may host a scripted adversary.
var fuzzTopos = []string{"k4", "k5", "k7", "thin7", "circ9"}

var adversaryKinds = []string{"crash", "flip", "coded", "alarm", "suppress", "random:%d"}

// Generate deterministically expands one fuzz seed into a scenario.
func Generate(fuzzSeed int64) *Scenario {
	r := &rng{s: uint64(fuzzSeed) * 0x9e3779b97f4a7c15}
	topoName := fuzzTopos[r.intn(len(fuzzTopos))]
	g, err := topo.Named(topoName)
	if err != nil {
		panic(err) // fuzzTopos names table entries
	}
	f, err := topo.MaxFaults(g)
	if err != nil {
		panic(err)
	}
	nodes := g.Nodes()[1:] // all but the source, node 1

	// Adversary cast: 1..f scripted Byzantine nodes on distinct ids.
	advs := map[nab.NodeID]string{}
	for i, n := 0, 1+r.intn(f); i < n; i++ {
		v := nodes[r.intn(len(nodes))]
		kind := adversaryKinds[r.intn(len(adversaryKinds))]
		if strings.Contains(kind, "%d") {
			kind = fmt.Sprintf(kind, 1+r.intn(1000))
		}
		advs[v] = kind
	}

	// Chaos physics: always latency+jitter, usually a reorder window,
	// sometimes a directed partition that heals mid-run, sometimes a
	// throttled slow link.
	chaos := &nab.ChaosConfig{
		Seed: int64(r.next() >> 1),
		Default: nab.ChaosLink{
			Latency: r.ms(0, 2),
			Jitter:  r.ms(1, 6),
		},
	}
	if r.unit() < 0.8 {
		chaos.Default.ReorderProb = 0.1 + 0.5*r.unit()
	}
	if r.unit() < 0.5 {
		from := nodes[r.intn(len(nodes))]
		to := nodes[r.intn(len(nodes))]
		if from != to {
			chaos.Partitions = []nab.ChaosPartition{{
				From:  []nab.NodeID{from},
				To:    []nab.NodeID{to},
				Start: r.ms(0, 200),
				Heal:  r.ms(400, 1200),
			}}
		}
	}
	if r.unit() < 0.3 {
		chaos.Links = []nab.ChaosLinkRule{{
			From:      nodes[r.intn(len(nodes))],
			LinkChaos: nab.ChaosLink{RateBits: int64(100_000 + r.intn(400_000))},
		}}
	}

	engines := []string{"pipelined", "pipelined", "tcp", "cluster", "kill-recover",
		"churn-join", "churn-join-kill", "churn-rolling"}
	sc := &Scenario{
		FuzzSeed:    fuzzSeed,
		Topology:    topoName,
		Source:      1,
		F:           f,
		LenBytes:    8 * (1 + r.intn(3)),
		Seed:        1 + int64(r.intn(1000)),
		Window:      1 + r.intn(4),
		Q:           3 + r.intn(5),
		Adversaries: advs,
		Chaos:       chaos,
		Engine:      engines[r.intn(len(engines))],
	}
	if sc.Engine == "kill-recover" {
		sc.KillAfter = 1 + r.intn(sc.Q-1)
	}
	if strings.HasPrefix(sc.Engine, "churn-") {
		// Churn needs room: the stream must outlive the kill point, a
		// snapshot boundary and the rejoin, with slack for a second churn.
		sc.Q = 12 + r.intn(6)
		sc.KillAfter = 2 + r.intn(3)
		sc.SnapEvery = 2 << r.intn(2) // 2 or 4
	}
	return sc
}

// view is one engine's observed outcome.
type view struct {
	results  []*nab.InstanceResult
	disputes string
}

// Run executes one scenario and returns nil iff the engine's commits and
// dispute set are byte-identical to the chaos-free lockstep oracle.
func Run(sc *Scenario) error {
	g, err := topo.Named(sc.Topology)
	if err != nil {
		return err
	}
	if err := sc.Chaos.Validate(); err != nil {
		return fmt.Errorf("generated chaos config invalid: %w", err)
	}
	payloads := make([][]byte, sc.Q)
	r := &rng{s: uint64(sc.Seed)}
	for i := range payloads {
		payloads[i] = make([]byte, sc.LenBytes)
		for j := range payloads[i] {
			payloads[i][j] = byte(r.next())
		}
	}

	oracleCfg, err := sc.config(g)
	if err != nil {
		return err
	}
	oracle, err := collectSession(oracleCfg, payloads, nab.WithLockstep())
	if err != nil {
		return fmt.Errorf("lockstep oracle: %w", err)
	}

	var got *view
	switch sc.Engine {
	case "pipelined":
		cfg, err := sc.config(g)
		if err != nil {
			return err
		}
		got, err = collectSession(cfg, payloads, nab.WithWindow(sc.Window),
			nab.WithTransportOptions(nab.TransportOptions{Chaos: sc.Chaos}))
		if err != nil {
			return err
		}
	case "tcp":
		cfg, err := sc.config(g)
		if err != nil {
			return err
		}
		tr, err := nab.NewTCPTransportOpts(g, nab.TCPTransportOptions{Chaos: sc.Chaos})
		if err != nil {
			return err
		}
		got, err = collectSession(cfg, payloads, nab.WithWindow(sc.Window), nab.WithTransport(tr))
		if err != nil {
			return err
		}
	case "cluster":
		got, err = runCluster(sc, g, payloads)
		if err != nil {
			return err
		}
	case "kill-recover":
		got, err = runKillRecover(sc, g, payloads)
		if err != nil {
			return err
		}
	case "churn-join", "churn-join-kill", "churn-rolling":
		// Churn engines diff against the oracle themselves: a blank join
		// legitimately drops the dead incarnation's unobserved outputs in
		// the gap below the snapshot boundary, and only the churn runner
		// knows which (instance, node) pairs those are.
		return runChurn(sc, g, payloads, oracle)
	default:
		return fmt.Errorf("unknown engine %q", sc.Engine)
	}
	return churnDiff(oracle, got, nil)
}

// config builds the scenario's session configuration over g, with fresh
// adversary instances on every call.
func (sc *Scenario) config(g *nab.Graph) (nab.Config, error) {
	advs, err := cluster.AdversarySpecs(sc.Adversaries).Build()
	return nab.Config{
		Graph: g, Source: sc.Source, F: sc.F,
		LenBytes: sc.LenBytes, Seed: sc.Seed, Adversaries: advs,
	}, err
}

// collectSession drives one session over payloads and gathers its view.
// Replayed commits (from a recovered WAL) merge with live ones, asserting
// re-emissions are byte-identical.
func collectSession(cfg nab.Config, payloads [][]byte, opts ...nab.SessionOption) (*view, error) {
	ctx := context.Background()
	sess, err := nab.Open(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return feedSession(sess, payloads)
}

func feedSession(sess *nab.Session, payloads [][]byte) (*view, error) {
	ctx := context.Background()
	go func() {
		skip := int(sess.RecoveredSeq())
		if skip > len(payloads) {
			skip = len(payloads)
		}
		for _, p := range payloads[skip:] {
			if _, err := sess.Submit(ctx, p); err != nil {
				return // terminal error surfaces via sess.Err
			}
		}
		sess.Drain(ctx)
	}()
	byK := map[int]*nab.InstanceResult{}
	for c := range sess.Commits() {
		if prev, dup := byK[c.Result.K]; dup {
			if err := sameResult(prev, c.Result); err != nil {
				return nil, fmt.Errorf("instance %d re-emitted differently: %w", c.Result.K, err)
			}
			continue
		}
		byK[c.Result.K] = c.Result
	}
	if err := sess.Err(); err != nil {
		return nil, err
	}
	v := &view{disputes: sess.Disputes().String()}
	for k := 1; k <= len(byK); k++ {
		ir, ok := byK[k]
		if !ok {
			return nil, fmt.Errorf("commit stream skipped instance %d", k)
		}
		v.results = append(v.results, ir)
	}
	return v, nil
}

// runCluster runs the scenario as an in-process multi-session cluster
// (one Session per hosting process over real TCP), with the chaos spec
// shared via the cluster config — the same path cluster.json takes.
func runCluster(sc *Scenario, g *nab.Graph, payloads [][]byte) (*view, error) {
	nodes := g.Nodes()
	procs := 3
	if procs > len(nodes) {
		procs = len(nodes)
	}
	rsv, err := nab.ReserveClusterAddrs(procs + 1)
	if err != nil {
		return nil, err
	}
	defer rsv.Close()
	addrs := rsv.Addrs()
	ccfg := &nab.ClusterConfig{
		Topology: g.Marshal(), Source: sc.Source, F: sc.F,
		LenBytes: sc.LenBytes, Seed: sc.Seed, Window: sc.Window,
		CtrlAddr: addrs[procs],
		Chaos:    sc.Chaos,
	}
	for i, v := range nodes {
		ccfg.Nodes = append(ccfg.Nodes, nab.ClusterNodeSpec{ID: v, Addr: addrs[i%procs], Adversary: sc.Adversaries[v]})
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}

	leads := map[string]nab.NodeID{}
	var order []string
	for _, ns := range ccfg.Nodes {
		if _, ok := leads[ns.Addr]; !ok {
			leads[ns.Addr] = ns.ID
			order = append(order, ns.Addr)
		}
	}
	views := make([]*view, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, addr := range order {
		wg.Add(1)
		go func(i int, lead nab.NodeID) {
			defer wg.Done()
			sess, err := nab.Open(context.Background(), nab.Config{},
				nab.WithCluster(ccfg, lead, nab.ClusterOptions{BootTimeout: 30 * time.Second, Reservation: rsv}))
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close()
			views[i], errs[i] = feedSession(sess, payloads)
		}(i, leads[addr])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
	}

	// Merge the per-process local views into full instance results.
	merged := &view{disputes: views[0].disputes}
	for _, v := range views[1:] {
		if v.disputes != merged.disputes {
			return nil, fmt.Errorf("processes disagree on disputes: %q vs %q", v.disputes, merged.disputes)
		}
		if len(v.results) != len(views[0].results) {
			return nil, fmt.Errorf("processes committed different instance counts")
		}
	}
	for k := range views[0].results {
		full := &nab.InstanceResult{
			K:        views[0].results[k].K,
			Mismatch: views[0].results[k].Mismatch,
			Phase3:   views[0].results[k].Phase3,
			Outputs:  map[nab.NodeID][]byte{},
		}
		for pi, v := range views {
			ir := v.results[k]
			if ir.Mismatch != full.Mismatch || ir.Phase3 != full.Phase3 {
				return nil, fmt.Errorf("process %d instance %d disagrees on schedule", pi, ir.K)
			}
			for node, out := range ir.Outputs {
				if prev, dup := full.Outputs[node]; dup && !bytes.Equal(prev, out) {
					return nil, fmt.Errorf("instance %d: node %d output reported twice with different values", ir.K, node)
				}
				full.Outputs[node] = out
			}
		}
		merged.results = append(merged.results, full)
	}
	return merged, nil
}

// runKillRecover composes chaos with the durability layer: a durable
// pipelined session is abortively closed after KillAfter commits (the
// process-crash model, minus the process), then recovered over the same
// WAL — logged commits replay, logged-but-uncommitted submissions
// re-enter, and the merged stream must still match the oracle.
func runKillRecover(sc *Scenario, g *nab.Graph, payloads [][]byte) (*view, error) {
	dir, err := os.MkdirTemp("", "chaosfuzz-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// First incarnation: submit everything, watch KillAfter commits land,
	// then kill the session without draining.
	cfg, err := sc.config(g)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sess, err := nab.Open(ctx, cfg, nab.WithWindow(sc.Window), nab.WithDurability(dir),
		nab.WithTransportOptions(nab.TransportOptions{Chaos: sc.Chaos}))
	if err != nil {
		return nil, err
	}
	go func() {
		for _, p := range payloads {
			if _, err := sess.Submit(ctx, p); err != nil {
				return
			}
		}
		// No Drain: the kill lands mid-stream.
	}()
	firstSeen := map[int]*nab.InstanceResult{}
	for len(firstSeen) < sc.KillAfter {
		c, ok := <-sess.Commits()
		if !ok {
			sess.Close()
			return nil, fmt.Errorf("stream ended after %d commits, before the kill point %d: %v", len(firstSeen), sc.KillAfter, sess.Err())
		}
		firstSeen[c.Result.K] = c.Result
	}
	sess.Close() // abortive: in-flight instances die with the engine

	// Second incarnation: recover the WAL, re-feed the workload (the
	// session skips what it already accepted) and finish the stream.
	cfg2, err := sc.config(g)
	if err != nil {
		return nil, err
	}
	sess2, err := nab.Open(ctx, cfg2, nab.WithWindow(sc.Window), nab.Recover(dir),
		nab.WithTransportOptions(nab.TransportOptions{Chaos: sc.Chaos}))
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	defer sess2.Close()
	v, err := feedSession(sess2, payloads)
	if err != nil {
		return nil, err
	}
	// Commits seen before the kill must have replayed byte-identically.
	for k, ir := range firstSeen {
		if k > len(v.results) {
			return nil, fmt.Errorf("instance %d committed before the kill but missing after recovery", k)
		}
		if err := sameResult(ir, v.results[k-1]); err != nil {
			return nil, fmt.Errorf("instance %d diverged across the kill: %w", k, err)
		}
	}
	return v, nil
}

// incarnation is one life of a cluster process under churn: a durable
// session driven until the stream ends, a self-kill at stopAfter
// commits, or an external kill. Fields other than the channels are
// owned by the run goroutine until done closes.
type incarnation struct {
	byK      map[int]*nab.InstanceResult
	firstK   int    // K of the first observed commit, set before first closes
	disputes string // final dispute set; valid only when clean
	clean    bool   // the stream ended naturally (not killed)
	err      error
	first    chan struct{} // closed on the first commit (or on exit)
	kill     chan struct{} // close to abort the session from outside
	done     chan struct{}
}

// launchProc starts one durable cluster process over dir and collects
// its commits. stopAfter > 0 makes the incarnation abortively close its
// own session after that many distinct commits — the in-process kill -9.
func launchProc(ccfg *nab.ClusterConfig, lead nab.NodeID, dir string, payloads [][]byte, opt nab.ClusterOptions, stopAfter int) *incarnation {
	inc := &incarnation{
		byK:   map[int]*nab.InstanceResult{},
		first: make(chan struct{}),
		kill:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(inc.done)
		firstClosed := false
		defer func() {
			if !firstClosed {
				close(inc.first)
			}
		}()
		ctx := context.Background()
		sess, err := nab.Open(ctx, nab.Config{}, nab.WithCluster(ccfg, lead, opt), nab.Recover(dir))
		if err != nil {
			inc.err = err
			return
		}
		defer sess.Close()
		go func() {
			select {
			case <-inc.kill:
				sess.Close() // idempotent; ends the commit stream
			case <-inc.done:
			}
		}()
		go func() {
			skip := int(sess.RecoveredSeq())
			if skip > len(payloads) {
				skip = len(payloads)
			}
			for _, p := range payloads[skip:] {
				if _, err := sess.Submit(ctx, p); err != nil {
					return // the session is dying; surfaces via sess.Err
				}
			}
			sess.Drain(ctx)
		}()
		for c := range sess.Commits() {
			if prev, dup := inc.byK[c.Result.K]; dup {
				if err := sameResult(prev, c.Result); err != nil {
					inc.err = fmt.Errorf("instance %d re-emitted differently: %w", c.Result.K, err)
					return
				}
				continue
			}
			inc.byK[c.Result.K] = c.Result
			if !firstClosed {
				inc.firstK = c.Result.K
				firstClosed = true
				close(inc.first)
			}
			if stopAfter > 0 && len(inc.byK) >= stopAfter {
				sess.Close() // abortive: in-flight instances die with the engine
				return
			}
		}
		select {
		case <-inc.kill:
			return // externally killed; the partial view stands
		default:
		}
		if err := sess.Err(); err != nil {
			inc.err = err
			return
		}
		inc.disputes = sess.Disputes().String()
		inc.clean = true
	}()
	return inc
}

// exKey names one (instance, node) output a churn run may legitimately
// miss: the node was hosted by a wiped process whose dead incarnation
// emitted it into the void between its last observed commit and the
// snapshot boundary the blank joiner entered at.
type exKey struct {
	k int
	v nab.NodeID
}

// runChurn runs the membership-churn engines: a durable in-process
// cluster whose processes are killed and brought back mid-stream —
// blank-WAL joins through the snapshot transfer, or crash-recovery over
// a preserved WAL — with the merged commit union still asserted
// byte-identical to the chaos-free lockstep oracle.
func runChurn(sc *Scenario, g *nab.Graph, payloads [][]byte, oracle *view) error {
	if sc.KillAfter < 1 || sc.KillAfter >= sc.Q {
		return fmt.Errorf("churn kill point %d outside (0, %d)", sc.KillAfter, sc.Q)
	}
	nodes := g.Nodes()
	// F+2 processes leave F+1 snapshot servers beside one blank joiner —
	// the quorum a join needs — and never fewer than 3.
	procs := min(max(3, sc.F+2), len(nodes))
	rsv, err := nab.ReserveClusterAddrs(procs + 1)
	if err != nil {
		return err
	}
	defer rsv.Close()
	addrs := rsv.Addrs()
	snapEvery := sc.SnapEvery
	if snapEvery <= 0 {
		snapEvery = 4
	}
	ccfg := &nab.ClusterConfig{
		Topology: g.Marshal(), Source: sc.Source, F: sc.F,
		LenBytes: sc.LenBytes, Seed: sc.Seed, Window: sc.Window,
		CtrlAddr: addrs[procs], SnapshotInterval: snapEvery,
		Chaos: sc.Chaos,
	}
	for i, v := range nodes {
		ccfg.Nodes = append(ccfg.Nodes, nab.ClusterNodeSpec{ID: v, Addr: addrs[i%procs], Adversary: sc.Adversaries[v]})
	}
	if err := ccfg.Validate(); err != nil {
		return err
	}
	leads := map[string]nab.NodeID{}
	hosted := map[string][]nab.NodeID{}
	var order []string
	for _, ns := range ccfg.Nodes {
		if _, ok := leads[ns.Addr]; !ok {
			leads[ns.Addr] = ns.ID
			order = append(order, ns.Addr)
		}
		hosted[ns.Addr] = append(hosted[ns.Addr], ns.ID)
	}
	dirs := make([]string, len(order))
	for i := range dirs {
		d, err := os.MkdirTemp("", "chaosfuzz-churn-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}

	// First incarnations: every process durable over its own WAL. The
	// first victim self-kills at the scenario's kill point; everyone else
	// runs until the churn schedule reaches for them.
	firstVictim := len(order) - 1
	if sc.Engine == "churn-rolling" {
		firstVictim = 0
	}
	incs := make([][]*incarnation, len(order))
	boot := nab.ClusterOptions{BootTimeout: 30 * time.Second, Reservation: rsv}
	for i, addr := range order {
		stop := 0
		if i == firstVictim {
			stop = sc.KillAfter
		}
		incs[i] = append(incs[i], launchProc(ccfg, leads[addr], dirs[i], payloads, boot, stop))
	}

	maxK := func(byK map[int]*nab.InstanceResult) int {
		m := 0
		for k := range byK {
			if k > m {
				m = k
			}
		}
		return m
	}
	exempt := map[exKey]bool{}

	// relaunch brings the killed process i back — blank (WAL wiped, Join)
	// or over its preserved log — and waits until the new incarnation is
	// live (first commit). Returns false when the stream had already
	// ended, so the churn schedule should stop. Blank joins record the
	// dead incarnation's output gap (delivered, J] as exempt: those
	// commits died unobserved with the old WAL, and the joiner enters at
	// the snapshot boundary J above them.
	relaunch := func(i int, blank bool) (bool, error) {
		dead := incs[i][len(incs[i])-1]
		<-dead.done
		if dead.err != nil {
			return false, fmt.Errorf("process %d pre-churn: %w", i, dead.err)
		}
		if dead.clean || maxK(dead.byK) >= sc.Q {
			// The stream outran the churn schedule; nothing left to rejoin
			// into (peers exit once the final barrier clears).
			return false, nil
		}
		opt := nab.ClusterOptions{BootTimeout: 30 * time.Second}
		if blank {
			if err := os.RemoveAll(dirs[i]); err != nil {
				return false, err
			}
			if err := os.MkdirAll(dirs[i], 0o755); err != nil {
				return false, err
			}
			opt.Join = true
		}
		inc := launchProc(ccfg, leads[order[i]], dirs[i], payloads, opt, 0)
		incs[i] = append(incs[i], inc)
		select {
		case <-inc.first:
		case <-inc.done:
		}
		if inc.err != nil {
			return false, fmt.Errorf("process %d rejoin: %w", i, inc.err)
		}
		if blank {
			delivered := maxK(dead.byK)
			for k := delivered + 1; k < inc.firstK; k++ {
				for _, v := range hosted[order[i]] {
					exempt[exKey{k, v}] = true
				}
			}
		}
		return true, nil
	}
	killProc := func(i int) {
		close(incs[i][len(incs[i])-1].kill)
	}
	hostsSource := func(i int) bool {
		for _, v := range hosted[order[i]] {
			if v == sc.Source {
				return true
			}
		}
		return false
	}

	switch sc.Engine {
	case "churn-join":
		if _, err := relaunch(firstVictim, true); err != nil {
			return err
		}
	case "churn-join-kill":
		live, err := relaunch(firstVictim, true)
		if err != nil {
			return err
		}
		if live {
			// With the joiner streaming, crash a second process and bring
			// it back over its preserved WAL — both churn kinds in one run.
			second := 1
			killProc(second)
			if _, err := relaunch(second, false); err != nil {
				return err
			}
		}
	case "churn-rolling":
		// Restart every process in sequence, one churn at a time: the
		// source host (it serves the control plane) recovers its WAL, the
		// rest come back blank through the snapshot transfer.
		for i := range order {
			if i != firstVictim {
				killProc(i)
			}
			live, err := relaunch(i, !hostsSource(i))
			if err != nil {
				return err
			}
			if !live {
				break
			}
		}
	default:
		return fmt.Errorf("unknown churn engine %q", sc.Engine)
	}

	// Wait out the final incarnations and merge: re-emissions within a
	// process must be byte-identical across its restarts, outputs across
	// processes must agree, and the union must cover the whole stream.
	disputes, haveDisputes := "", false
	for i := range order {
		last := incs[i][len(incs[i])-1]
		<-last.done
		if last.err != nil {
			return fmt.Errorf("process %d: %w", i, last.err)
		}
		if !last.clean {
			continue
		}
		if haveDisputes && last.disputes != disputes {
			return fmt.Errorf("processes disagree on disputes: %q vs %q", last.disputes, disputes)
		}
		disputes, haveDisputes = last.disputes, true
	}
	if !haveDisputes {
		return fmt.Errorf("no process ran the stream to completion")
	}
	byK := map[int]*nab.InstanceResult{}
	for i := range order {
		procByK := map[int]*nab.InstanceResult{}
		for _, inc := range incs[i] {
			for k, ir := range inc.byK {
				if prev, dup := procByK[k]; dup {
					if err := sameResult(prev, ir); err != nil {
						return fmt.Errorf("process %d instance %d diverged across restarts: %w", i, k, err)
					}
					continue
				}
				procByK[k] = ir
			}
		}
		for k, ir := range procByK {
			full, ok := byK[k]
			if !ok {
				full = &nab.InstanceResult{K: ir.K, Mismatch: ir.Mismatch, Phase3: ir.Phase3, Outputs: map[nab.NodeID][]byte{}}
				byK[k] = full
			}
			if full.Mismatch != ir.Mismatch || full.Phase3 != ir.Phase3 {
				return fmt.Errorf("process %d instance %d disagrees on schedule", i, k)
			}
			for node, out := range ir.Outputs {
				if prev, dup := full.Outputs[node]; dup && !bytes.Equal(prev, out) {
					return fmt.Errorf("instance %d: node %d output reported twice with different values", k, node)
				}
				full.Outputs[node] = out
			}
		}
	}
	got := &view{disputes: disputes}
	for k := 1; k <= sc.Q; k++ {
		ir, ok := byK[k]
		if !ok {
			return fmt.Errorf("no process committed instance %d", k)
		}
		got.results = append(got.results, ir)
	}
	return churnDiff(oracle, got, exempt)
}

// churnDiff asserts the engine view matches the oracle byte for byte.
// Cluster views carry only locally-hosted outputs per process pre-merge;
// by the time they reach churnDiff they are full maps. The one gap is a
// blank join's: an output the oracle holds may be absent iff it is exempt
// — any present value must still match.
func churnDiff(oracle, got *view, exempt map[exKey]bool) error {
	if got.disputes != oracle.disputes {
		return fmt.Errorf("dispute set %q, oracle %q", got.disputes, oracle.disputes)
	}
	if len(got.results) != len(oracle.results) {
		return fmt.Errorf("committed %d instances, oracle %d", len(got.results), len(oracle.results))
	}
	for i, w := range oracle.results {
		gr := got.results[i]
		if gr.Mismatch != w.Mismatch || gr.Phase3 != w.Phase3 {
			return fmt.Errorf("instance %d: mismatch/phase3 %v/%v, oracle %v/%v", i+1, gr.Mismatch, gr.Phase3, w.Mismatch, w.Phase3)
		}
		for v, out := range w.Outputs {
			g, ok := gr.Outputs[v]
			if !ok {
				if exempt[exKey{w.K, v}] {
					continue
				}
				return fmt.Errorf("instance %d: node %d output missing", i+1, v)
			}
			if !bytes.Equal(g, out) {
				return fmt.Errorf("instance %d: node %d output %x, oracle %x", i+1, v, g, out)
			}
		}
	}
	return nil
}

// sameResult checks that a replayed or re-executed commit matches its
// original: schedule, outputs and the model quantities (bits, phase times)
// it was committed with.
func sameResult(a, b *nab.InstanceResult) error {
	if a.K != b.K || a.Mismatch != b.Mismatch || a.Phase3 != b.Phase3 {
		return fmt.Errorf("schedule %d/%v/%v vs %d/%v/%v", a.K, a.Mismatch, a.Phase3, b.K, b.Mismatch, b.Phase3)
	}
	if len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("%d vs %d outputs", len(a.Outputs), len(b.Outputs))
	}
	for v, out := range a.Outputs {
		if !bytes.Equal(b.Outputs[v], out) {
			return fmt.Errorf("node %d output %x vs %x", v, out, b.Outputs[v])
		}
	}
	if a.TotalBits != b.TotalBits {
		return fmt.Errorf("%d vs %d bits", a.TotalBits, b.TotalBits)
	}
	if at, bt := phaseTimes(a), phaseTimes(b); at != bt {
		return fmt.Errorf("phase times %v vs %v", at, bt)
	}
	return nil
}

func phaseTimes(ir *nab.InstanceResult) [5]float64 {
	return [5]float64{ir.Phase1Time, ir.Phase1SFTime, ir.EqualityTime, ir.FlagTime, ir.DisputeTime}
}
