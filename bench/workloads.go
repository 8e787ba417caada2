package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"nab"
	"nab/internal/cluster"
)

// A workload is one named set of inputs: a topology, a payload size, a
// substrate and a fault script. Why records the layer it was built to load
// and what it is predicted not to move; BENCHMARK.json repeats it.
type workload struct {
	Name string
	Why  string
	// Len is L, the payload size in bytes.
	Len int
	// F is the fault bound; Source is node 1 everywhere.
	F int
	// Tail is the fixed percentile reported as commit_latency_tail_ms:
	// the highest of p99/p95/p90/p75 that leaves at least ten samples
	// beyond it in one run at seed state and whose spread over ten seeds
	// stayed under a third of the bound (README, "The rule for tails").
	Tail float64
	// TimeUnit > 0 paces every link with token buckets of z_e bits per
	// unit; capacity_fraction is then a physical quantity.
	TimeUnit time.Duration
	// Medium says what the frames crossed, for the result's provenance;
	// TCP is set when they were encoded onto sockets.
	Medium string
	TCP    bool
	// Rounds > 0 makes the workload a churn: a fresh session every
	// Rounds instances instead of one long-lived session.
	Rounds int

	graph func() (*nab.Graph, error)
	// faulty scripts the Byzantine nodes (cluster spec strings, resolved
	// through the cluster package's parser for every workload so the
	// scripts mean the same thing everywhere).
	faulty map[nab.NodeID]string
	// open starts the workload's sessions. flightOpts is non-empty on the
	// traced run and is given to the source host's session only (the
	// recorder is process-global).
	open func(ctx context.Context, w *workload, env *runEnv, flightOpts []nab.SessionOption) (*target, error)
}

func k7() (*nab.Graph, error) { return nab.CompleteGraph(7, 1), nil }

func thin7() (*nab.Graph, error) { return nab.OneThinLinkGraph(7, 2, 3, 8, 1) }

var workloads = []*workload{
	{
		Name: "small_chan", Len: 64, F: 2, Tail: 0.95, Medium: "in-process channels",
		Why:   "K7, L=64 B, unpaced bus: fixed per-instance cost (bb EIG, relay, scheduling, GC) dominates and coding is negligible; kernel work must not move it",
		graph: k7, open: openSingle,
	},
	{
		Name: "bulk_chan", Len: 64 << 10, F: 2, Tail: 0.90, Medium: "in-process channels",
		Why:   "K7, L=64 KiB, unpaced bus: coding/linalg/gf (clmul path) and bit packing do most of the work; a bb or alloc fix must show nothing here",
		graph: k7, open: openSingle,
	},
	{
		Name: "paced_thin", Len: 4 << 10, F: 1, Tail: 0.75, TimeUnit: refTimeUnit, Medium: "in-process channels, token-bucket paced at 20us per time unit",
		Why:   "OneThinLink(7), L=4 KiB, links paced: token buckets, not CPU, bound it, so capacity_fraction is physical; only scheduling, pacer and protocol-bit changes move it",
		graph: thin7, open: openSingle,
	},
	{
		Name: "serve_durable", Len: 1 << 10, F: 2, Tail: 0.95, Medium: "loopback TCP, WAL on local disk", TCP: true,
		Why:   "K7, L=1 KiB, loopback TCP + WAL (the nabserve -wal path): framing, coalescing, sockets and fsync; guards the one-transport and one-state-record deletions",
		graph: k7, open: openDurable,
	},
	{
		Name: "cluster_k7_crash", Len: 1 << 10, F: 2, Tail: 0.95, Medium: "loopback TCP mesh and control plane, seven sessions in one process", TCP: true,
		Why:   "seven cluster sessions, node 7 crashed and excluded: its host resolves every decision over the control plane, the steady-state path of the cluster-vs-pipelined inversion",
		graph: k7, open: openCluster,
		faulty: map[nab.NodeID]string{7: "crash"},
	},
	{
		Name: "dispute_churn", Len: 1 << 10, F: 2, Tail: 0.95, Rounds: 16, Medium: "in-process channels",
		Why:   "fresh K7 session per 16 instances with alarm@3 and flip@5: planning, Phase 3, barriers and replays do the work; a cache that slows generation switches or Open shows here",
		graph: k7, open: openSingle,
		faulty: map[nab.NodeID]string{3: "alarm", 5: "flip"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runEnv is what one run of one workload shares: the seed every input is
// derived from and the scratch directory (inside the checkout) for WALs.
type runEnv struct {
	seed    int64
	scratch string
}

// host is one session of a target plus the nodes whose outputs it must
// deliver: the fault-free nodes it hosts.
type host struct {
	sess   *nab.Session
	verify []nab.NodeID
}

// target is the live system under load. hosts[0] serves the source.
type target struct {
	hosts []*host
	// walDir is the session's log directory (serve_durable only).
	walDir  string
	cleanup func()
}

func (t *target) release() {
	if t.cleanup != nil {
		t.cleanup()
	}
}

// config assembles the core configuration of a workload for this run.
func (w *workload) config(env *runEnv) (nab.Config, error) {
	g, err := w.graph()
	if err != nil {
		return nab.Config{}, err
	}
	return nab.Config{Graph: g, Source: 1, F: w.F, LenBytes: w.Len, Seed: env.seed}, nil
}

// adversaries builds fresh instances of the scripted Byzantine behaviours.
func (w *workload) adversaries() (map[nab.NodeID]nab.Adversary, error) {
	out := map[nab.NodeID]nab.Adversary{}
	for v, spec := range w.faulty {
		a, err := cluster.ParseAdversary(spec)
		if err != nil {
			return nil, err
		}
		out[v] = a
	}
	return out, nil
}

// faultFree lists the nodes of g that the workload does not script.
func (w *workload) faultFree(nodes []nab.NodeID) []nab.NodeID {
	var out []nab.NodeID
	for _, v := range nodes {
		if _, bad := w.faulty[v]; !bad {
			out = append(out, v)
		}
	}
	return out
}

// openSingle opens one pipelined session over the in-process bus.
func openSingle(ctx context.Context, w *workload, env *runEnv, flightOpts []nab.SessionOption) (*target, error) {
	cfg, err := w.config(env)
	if err != nil {
		return nil, err
	}
	opts := []nab.SessionOption{nab.WithWindow(loopWindow)}
	if w.TimeUnit > 0 {
		opts = append(opts, nab.WithTransportOptions(nab.TransportOptions{TimeUnit: w.TimeUnit}))
	}
	if cfg.Adversaries, err = w.adversaries(); err != nil {
		return nil, err
	}
	sess, err := nab.Open(ctx, cfg, append(opts, flightOpts...)...)
	if err != nil {
		return nil, err
	}
	return &target{hosts: []*host{{sess: sess, verify: w.faultFree(cfg.Graph.Nodes())}}}, nil
}

// openDurable opens one pipelined session over loopback TCP with a fresh
// write-ahead log, the configuration nabserve -net-transport -wal runs.
func openDurable(ctx context.Context, w *workload, env *runEnv, flightOpts []nab.SessionOption) (*target, error) {
	cfg, err := w.config(env)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.scratch, "wal-")
	if err != nil {
		return nil, err
	}
	tr, err := nab.NewTCPTransport(cfg.Graph)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	opts := append([]nab.SessionOption{
		nab.WithWindow(loopWindow), nab.WithTransport(tr), nab.WithDurability(dir),
	}, flightOpts...)
	sess, err := nab.Open(ctx, cfg, opts...)
	if err != nil {
		tr.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &target{
		hosts:   []*host{{sess: sess, verify: w.faultFree(cfg.Graph.Nodes())}},
		walDir:  dir,
		cleanup: func() { os.RemoveAll(dir) },
	}, nil
}

// openCluster boots one cluster session per node in this process: a TCP
// mesh endpoint each plus the coordinator's control plane, exactly what n
// nabnode processes would open, minus the process boundaries.
func openCluster(ctx context.Context, w *workload, env *runEnv, flightOpts []nab.SessionOption) (*target, error) {
	g, err := w.graph()
	if err != nil {
		return nil, err
	}
	nodes := g.Nodes()
	rsv, err := nab.ReserveClusterAddrs(len(nodes) + 1)
	if err != nil {
		return nil, err
	}
	addrs := rsv.Addrs()
	ccfg := &nab.ClusterConfig{
		Topology: g.Marshal(), Source: 1, F: w.F, LenBytes: w.Len,
		Seed: env.seed, Window: loopWindow, CtrlAddr: addrs[len(nodes)],
	}
	for i, v := range nodes {
		ccfg.Nodes = append(ccfg.Nodes, nab.ClusterNodeSpec{ID: v, Addr: addrs[i], Adversary: w.faulty[v]})
	}
	if err := ccfg.Validate(); err != nil {
		rsv.Close()
		return nil, err
	}
	t := &target{hosts: make([]*host, len(nodes)), cleanup: func() { rsv.Close() }}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, v := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := []nab.SessionOption{nab.WithCluster(ccfg, v, nab.ClusterOptions{
				Reservation: rsv, BootTimeout: 30 * time.Second,
			})}
			if v == ccfg.Source {
				opts = append(opts, flightOpts...)
			}
			sess, err := nab.Open(ctx, nab.Config{}, opts...)
			if err != nil {
				errs[i] = fmt.Errorf("node %d: %w", v, err)
				return
			}
			t.hosts[i] = &host{sess: sess, verify: w.faultFree([]nab.NodeID{v})}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, h := range t.hosts {
				if h != nil {
					h.sess.Close()
				}
			}
			t.release()
			return nil, err
		}
	}
	// nodes is ascending, so hosts[0] hosts node 1, the source.
	return t, nil
}
