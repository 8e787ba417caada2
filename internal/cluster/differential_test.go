package cluster_test

import (
	"fmt"
	"reflect"
	"testing"

	"nab/internal/cluster"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/topo"
)

// The differential scenario matrix is the PR's hardening instrument: for
// every adversary scenario on every topology, the same workload runs on
// three engines —
//
//	lockstep   core.Runner on the synchronous simulator,
//	pipelined  internal/runtime with W=4 over the in-process bus,
//	cluster    one process per hosting address over real TCP sockets,
//
// and the committed instances must agree: the pipelined engine's equal
// the lockstep ones as whole InstanceResults, the cluster processes'
// together (outputs merged, bits summed, phase times maxed), and every
// engine ends on the same dispute set.

type matrixTopology struct {
	name   string
	g      *graph.Directed
	source graph.NodeID
	f      int
	victim graph.NodeID // non-source node the scenario scripts
	procs  int          // hosting processes for the cluster engine
}

func matrixTopologies(t *testing.T) []matrixTopology {
	t.Helper()
	circ, err := topo.Circulant(9, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := topo.OneThinLink(7, 2, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []matrixTopology{
		// Fig1a has vertex connectivity 2, so the paper's precondition
		// (>= 2f+1) only admits f=0 on it: adversarial cells are skipped.
		{name: "Fig1a", g: topo.Fig1a(), source: 1, f: 0, victim: 3, procs: 4},
		{name: "K7", g: topo.CompleteBi(7, 1), source: 1, f: 2, victim: 3, procs: 7},
		// 9 nodes on 3 processes: mixed in-memory and TCP links.
		{name: "Circulant9", g: circ, source: 1, f: 1, victim: 4, procs: 3},
		{name: "OneThinLink7", g: thin, source: 1, f: 1, victim: 2, procs: 7},
	}
}

// matrixScenarios scripts the victim node. Specs are cluster.Config
// adversary strings, so the same scenario definition drives all three
// engines; "random:<seed>" is the instance-scoped form, reproducible at
// any pipeline window.
func matrixScenarios() []struct{ name, spec string } {
	return []struct{ name, spec string }{
		{"Honest", ""},
		{"Crash", "crash"},
		{"BlockFlipper", "flip"},
		{"CodedCorruptor", "coded"},
		{"FalseAlarm", "alarm"},
		{"Random", "random:99"},
	}
}

// pipelinedRun executes the workload on the W=4 in-process runtime.
func pipelinedRun(t *testing.T, cfg *cluster.Config) (*core.RunResult, string) {
	t.Helper()
	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{Config: coreCfg, Window: cfg.Window})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := runBatch(rt, cfg.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	return &res.RunResult, rt.Disputes().String()
}

func TestDifferentialScenarioMatrix(t *testing.T) {
	for _, tp := range matrixTopologies(t) {
		for _, sc := range matrixScenarios() {
			t.Run(fmt.Sprintf("%s/%s", tp.name, sc.name), func(t *testing.T) {
				if tp.f == 0 && sc.spec != "" {
					t.Skipf("%s only satisfies the connectivity precondition for f=0; no faults to script", tp.name)
				}
				advs := map[graph.NodeID]string{}
				if sc.spec != "" {
					advs[tp.victim] = sc.spec
				}
				cfg, rsv := mkConfig(t, tp.g, tp.source, tp.f, tp.procs, 4, advs)

				want, wantDisputes := lockstepRun(t, cfg)

				pipe, pipeDisputes := pipelinedRun(t, cfg)
				comparePipelined(t, want, pipe)
				if pipeDisputes != wantDisputes {
					t.Errorf("pipelined dispute set %q, want %q", pipeDisputes, wantDisputes)
				}

				results := runCluster(t, cfg, rsv)
				checkAgainstLockstep(t, cfg, results, want, wantDisputes)
			})
		}
	}
}

// comparePipelined asserts that every pipelined instance equals its
// lockstep counterpart as a whole InstanceResult: both engines see every
// node and plan each generation from the same seed, so outputs, findings
// and the model quantities (bits, phase times) all match.
func comparePipelined(t *testing.T, want, got *core.RunResult) {
	t.Helper()
	if len(got.Instances) != len(want.Instances) {
		t.Fatalf("pipelined committed %d instances, want %d", len(got.Instances), len(want.Instances))
	}
	for i, w := range want.Instances {
		if g := got.Instances[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("pipelined instance %d: %+v, want %+v", i+1, g, w)
		}
	}
}

// TestDifferentialAlarmThenFlip drives the deepest control-plane path:
// on K7 with f=2, the alarmer is proven faulty (and excluded) in
// instance 1, while the block flipper keeps forcing dispute phases
// afterwards — so dispute control runs while a node is already excluded,
// and that node's host must fetch both the mismatch bit AND the audit
// findings from the coordinator (NeedAudit), then fold identically.
func TestDifferentialAlarmThenFlip(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	cfg, rsv := mkConfig(t, g, 1, 2, 7, 5, map[graph.NodeID]string{3: "alarm", 5: "flip"})
	want, wantDisputes := lockstepRun(t, cfg)

	phase3AfterExclusion := false
	excluded := 0
	for _, ir := range want.Instances {
		if excluded > 0 && ir.Phase3 {
			phase3AfterExclusion = true
		}
		excluded += len(ir.NewFaulty)
	}
	if !phase3AfterExclusion {
		t.Fatal("scenario does not run dispute control after an exclusion; pick different adversaries")
	}

	pipe, pipeDisputes := pipelinedRun(t, cfg)
	comparePipelined(t, want, pipe)
	if pipeDisputes != wantDisputes {
		t.Errorf("pipelined dispute set %q, want %q", pipeDisputes, wantDisputes)
	}

	results := runCluster(t, cfg, rsv)
	checkAgainstLockstep(t, cfg, results, want, wantDisputes)
}
