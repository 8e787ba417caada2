package cluster_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nab/internal/adversary"
	"nab/internal/cluster"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/topo"
)

// batchChan turns a fixed workload into the pre-closed submission channel
// the streaming entry points consume.
func batchChan(inputs [][]byte) chan []byte {
	subs := make(chan []byte, len(inputs))
	for _, in := range inputs {
		subs <- in
	}
	close(subs)
	return subs
}

// runBatch feeds a fixed batch through the runtime's streaming entry
// point and returns once every instance has committed.
func runBatch(rt *runtime.Runtime, inputs [][]byte) (*runtime.Result, error) {
	return rt.RunStream(context.Background(), batchChan(inputs), nil)
}

// streamNode drives a cluster node through Stream over the whole
// workload, as every process of a cluster must.
func streamNode(n *cluster.Node, inputs [][]byte) (*runtime.Result, error) {
	return n.Stream(context.Background(), batchChan(inputs), nil)
}

// mkConfig assembles a loopback cluster config: nodes are assigned to
// hosting processes round-robin over `procs` addresses (procs == n gives
// every node its own process). The endpoints are reserved as held
// listeners; runCluster hands them to the node bootstraps.
func mkConfig(t *testing.T, g *graph.Directed, source graph.NodeID, f, procs, instances int, advs map[graph.NodeID]string) (*cluster.Config, *cluster.Reservation) {
	t.Helper()
	nodes := g.Nodes()
	rsv, err := cluster.ReserveAddrs(procs + 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsv.Close() })
	addrs := rsv.Addrs()
	cfg := &cluster.Config{
		Topology:  g.Marshal(),
		Source:    source,
		F:         f,
		LenBytes:  24,
		Seed:      7,
		Window:    4,
		Instances: instances,
		CtrlAddr:  addrs[procs],
	}
	// The source must land in process 0's group only by accident of
	// round-robin; that is fine — any process may coordinate, as long as
	// it is the one hosting the source.
	for i, v := range nodes {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeSpec{
			ID:        v,
			Addr:      addrs[i%procs],
			Adversary: advs[v],
		})
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg, rsv
}

// clusterResult is one hosting process's view of the run.
type clusterResult struct {
	locals   []graph.NodeID
	res      *runtime.Result
	disputes string
	dropped  int64
	err      error
}

// runCluster boots one cluster.Node per distinct hosting address (each
// standing in for one OS process, with node-to-node traffic on real TCP
// sockets), runs the configured workload everywhere, and collects every
// process's view.
func runCluster(t *testing.T, cfg *cluster.Config, rsv *cluster.Reservation) []clusterResult {
	t.Helper()
	hosts := map[string]graph.NodeID{} // one Start per address
	var order []string
	for _, ns := range cfg.Nodes {
		if _, ok := hosts[ns.Addr]; !ok {
			hosts[ns.Addr] = ns.ID
			order = append(order, ns.Addr)
		}
	}
	results := make([]clusterResult, len(order))
	var wg sync.WaitGroup
	for i, addr := range order {
		wg.Add(1)
		go func(i int, lead graph.NodeID) {
			defer wg.Done()
			n, err := cluster.Start(cfg, lead, cluster.Options{BootTimeout: 30 * time.Second, Reservation: rsv}, nil)
			if err != nil {
				results[i] = clusterResult{err: err}
				return
			}
			defer n.Close()
			res, err := streamNode(n, cfg.Inputs())
			results[i] = clusterResult{
				locals:   n.Locals(),
				res:      res,
				disputes: n.Runtime().Disputes().String(),
				dropped:  n.Dropped(),
				err:      err,
			}
		}(i, hosts[addr])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("cluster run timed out (likely a cross-process deadlock)")
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("process %d (%s): %v", i, order[i], r.err)
		}
	}
	return results
}

// lockstepRun executes the same workload on the lockstep Runner.
func lockstepRun(t *testing.T, cfg *cluster.Config) (*core.RunResult, string) {
	t.Helper()
	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	lock, err := core.NewRunner(coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lock.Run(cfg.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	return want, lock.Disputes().String()
}

// checkAgainstLockstep asserts that the processes together committed the
// lockstep run. Per instance, their outputs merge into the lockstep
// outputs, their TotalBits sum to the lockstep value and the maximum over
// processes of each cut-through phase time is the lockstep time; every
// other field of each process's result equals the lockstep one. A partial
// engine charges only its local nodes' sends, so Phase1SFTime (a sum of
// per-round maxima) is not comparable this way. Every process must also
// end on the lockstep dispute set.
func checkAgainstLockstep(t *testing.T, cfg *cluster.Config, results []clusterResult, want *core.RunResult, wantDisputes string) {
	t.Helper()
	for pi, r := range results {
		if got, wantN := len(r.res.Instances), len(want.Instances); got != wantN {
			t.Fatalf("process %d committed %d instances, want %d", pi, got, wantN)
		}
		if r.dropped != 0 {
			t.Errorf("process %d transport dropped %d frames", pi, r.dropped)
		}
		if r.disputes != wantDisputes {
			t.Errorf("process %d dispute set %q, want %q", pi, r.disputes, wantDisputes)
		}
	}
	for i, w := range want.Instances {
		all := core.InstanceResult{Outputs: map[graph.NodeID][]byte{}}
		for _, r := range results {
			g := r.res.Instances[i]
			for v, out := range g.Outputs {
				if prev, dup := all.Outputs[v]; dup && string(prev) != string(out) {
					t.Errorf("instance %d: node %d output reported twice with different values", i+1, v)
				}
				all.Outputs[v] = out
			}
			all.TotalBits += g.TotalBits
			all.Phase1Time = max(all.Phase1Time, g.Phase1Time)
			all.EqualityTime = max(all.EqualityTime, g.EqualityTime)
			all.FlagTime = max(all.FlagTime, g.FlagTime)
			all.DisputeTime = max(all.DisputeTime, g.DisputeTime)
		}
		for pi, r := range results {
			g := *r.res.Instances[i]
			g.Outputs, g.TotalBits, g.Phase1SFTime = all.Outputs, all.TotalBits, w.Phase1SFTime
			g.Phase1Time, g.EqualityTime, g.FlagTime, g.DisputeTime = all.Phase1Time, all.EqualityTime, all.FlagTime, all.DisputeTime
			if !reflect.DeepEqual(&g, w) {
				t.Errorf("process %d instance %d with the cluster's merged outputs, summed bits and maxed phase times: %+v, lockstep %+v", pi, i+1, g, w)
			}
		}
	}
}

// TestClusterHonestK4 is the smoke test: 4 single-node processes over
// real TCP, fault-free, byte-identical to lockstep.
func TestClusterHonestK4(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	cfg, rsv := mkConfig(t, g, 1, 1, 4, 3, nil)
	want, wantDisputes := lockstepRun(t, cfg)
	results := runCluster(t, cfg, rsv)
	checkAgainstLockstep(t, cfg, results, want, wantDisputes)
}

// TestClusterFalseAlarmExclusion exercises the control plane: the
// alarmer is proven faulty in instance 1 and excluded; its host then
// follows the coordinator's schedule decisions for the remaining
// instances (K7, f=2, so phases keep running after the exclusion).
func TestClusterFalseAlarmExclusion(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	cfg, rsv := mkConfig(t, g, 1, 2, 7, 4, map[graph.NodeID]string{4: "alarm"})
	want, wantDisputes := lockstepRun(t, cfg)
	results := runCluster(t, cfg, rsv)
	checkAgainstLockstep(t, cfg, results, want, wantDisputes)
	if !want.Instances[0].Phase3 {
		t.Fatal("scenario did not exercise dispute control")
	}
}

// TestClusterColocatedHosts runs 9 nodes on 3 processes (3 nodes each):
// local links short-circuit in memory, remote ones ride TCP.
func TestClusterColocatedHosts(t *testing.T) {
	g, err := topo.Circulant(9, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg, rsv := mkConfig(t, g, 1, 1, 3, 3, map[graph.NodeID]string{4: "flip"})
	want, wantDisputes := lockstepRun(t, cfg)
	results := runCluster(t, cfg, rsv)
	checkAgainstLockstep(t, cfg, results, want, wantDisputes)
}

// TestConfigRoundTrip checks Save/Load fidelity.
func TestConfigRoundTrip(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	cfg, _ := mkConfig(t, g, 1, 1, 4, 2, map[graph.NodeID]string{3: "crash"})
	path := t.TempDir() + "/cluster.json"
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != cfg.Topology || len(got.Nodes) != len(cfg.Nodes) || got.CtrlAddr != cfg.CtrlAddr {
		t.Errorf("round-trip mismatch: %+v vs %+v", got, cfg)
	}
	if _, err := cluster.ParseAdversary("bogus"); err == nil {
		t.Error("ParseAdversary accepted a bogus strategy")
	}
	if cfg2 := *cfg; true {
		cfg2.CtrlAddr = ""
		if err := cfg2.Validate(); err == nil {
			t.Error("Validate accepted a config with no control address")
		}
	}
}

// TestAdversarySpecs pins the -adversary node=strategy flag every command
// shares: Set validates through ParseAdversary, Build resolves every spec.
func TestAdversarySpecs(t *testing.T) {
	specs := cluster.AdversarySpecs{}
	for _, good := range []string{"3=flip", "2=coded", "5=alarm", "4=crash", "6=random", "7=random:9", "8=suppress"} {
		if err := specs.Set(good); err != nil {
			t.Errorf("%q: %v", good, err)
		}
	}
	for _, bad := range []string{"3", "x=flip", "3=unknown", "3=random:x"} {
		if err := specs.Set(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	advs, err := specs.Build()
	if err != nil || len(advs) != 7 || specs.String() == "" {
		t.Errorf("built %d adversaries from %v: %v", len(advs), specs, err)
	}
	if a := advs[6].(*adversary.Random); a.Seed != 0 {
		t.Errorf("bare random has seed %d, want 0", a.Seed)
	}
	if a := advs[7].(*adversary.Random); a.Seed != 9 {
		t.Errorf("random:9 has seed %d", a.Seed)
	}
}

func ExampleConfig_Inputs() {
	cfg := &cluster.Config{Seed: 1, LenBytes: 4, Instances: 2}
	a, b := cfg.Inputs(), cfg.Inputs()
	fmt.Println(len(a) == len(b) && string(a[0]) == string(b[0]) && string(a[1]) == string(b[1]))
	// Output: true
}
