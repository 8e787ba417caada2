package core_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/flight"
	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/topo"
)

// planCase is one network of the plan-cache tests: E4's six networks with
// a block flipper at E4's faulty node, plus the dispute_churn shape.
type planCase struct {
	name string
	cfg  core.Config
}

func planCases(t *testing.T) []planCase {
	t.Helper()
	rnd6, err := topo.RandomConnected(rand.New(rand.NewSource(1)), 6, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := topo.OneThinLink(5, 4, 5, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := topo.Circulant(8, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(g *graph.Directed, f int, bad graph.NodeID) core.Config {
		return core.Config{Graph: g, Source: 1, F: f, LenBytes: 64, Seed: 11,
			Adversaries: map[graph.NodeID]core.Adversary{bad: &adversary.BlockFlipper{}}}
	}
	return []planCase{
		{"K4 unit", flip(topo.CompleteBi(4, 1), 1, 3)},
		{"K5 cap2", flip(topo.CompleteBi(5, 2), 1, 4)},
		{"K7 cap2", flip(topo.CompleteBi(7, 2), 2, 5)},
		{"random n=6", flip(rnd6, 1, 4)},
		{"one-thin-link n=5", flip(thin, 1, 4)},
		{"circulant C8(1,2)", flip(circ, 1, 5)},
		{"K7 churn", churnConfig()},
	}
}

// churnConfig is the dispute_churn shape: K7, f = 2, L = 1 KiB, a false
// alarm at node 3 and a block flipper at node 5.
func churnConfig() core.Config {
	return core.Config{Graph: topo.CompleteBi(7, 1), Source: 1, F: 2, LenBytes: 1024, Seed: 5,
		Adversaries: map[graph.NodeID]core.Adversary{3: adversary.FalseAlarm{}, 5: &adversary.BlockFlipper{}}}
}

func input(k, n int) []byte { return bytes.Repeat([]byte{byte(k)}, n) }

// samePlan fails unless the two plans agree field by field.
func samePlan(t *testing.T, what string, got, want core.PlanFields) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Fatalf("%s: %s = %v, fresh plan has %v", what, gv.Type().Field(i).Name,
				gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

// TestPlanCacheMatchesFreshPlan pins the cache to the eager builder: at
// every generation a run reaches, the plan Protocol.Plan hands out — the
// same one for every instance of the generation — equals a fresh
// PlanInstance on that state seeded by planSeed(seed, gen).
func TestPlanCacheMatchesFreshPlan(t *testing.T) {
	for _, tc := range planCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			p, err := core.NewProtocol(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds := core.NewDisputeState(tc.cfg.Graph)
			var cur *core.InstancePlan
			checked := map[int]bool{}
			for k := 1; k <= 12; k++ {
				pl := p.Plan(ds)
				if checked[ds.Gen()] && pl != cur {
					t.Fatalf("instance %d: generation %d planned twice", k, ds.Gen())
				}
				if !checked[ds.Gen()] {
					got, err := pl.Fields(k)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := p.PlanInstance(ds, k, rand.New(rand.NewSource(core.PlanSeed(tc.cfg.Seed, ds.Gen()))))
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Fields(k)
					if err != nil {
						t.Fatal(err)
					}
					samePlan(t, tc.name, got, want)
					checked[ds.Gen()], cur = true, pl
				}
				eng := sim.New(tc.cfg.Graph)
				ir, err := pl.Execute(eng, k, input(k, tc.cfg.LenBytes))
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Fold(ds, ir); err != nil {
					t.Fatal(err)
				}
			}
			if len(checked) < 2 || tc.name == "K7 churn" && len(checked) != 3 {
				t.Fatalf("the run reached %d generations", len(checked))
			}
		})
	}
}

// TestPlanCacheRestoreDoesNotAlias restores, on the same Protocol, a state
// whose generation number equals a planned state's but whose G_k differs:
// it must be planned for its own G_k, not handed the other state's plan.
func TestPlanCacheRestoreDoesNotAlias(t *testing.T) {
	cfg := churnConfig()
	p, err := core.NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := core.NewDisputeState(cfg.Graph)
	for k := 1; ds.Gen() == 0; k++ {
		eng := sim.New(cfg.Graph)
		ir, err := p.Plan(ds).Execute(eng, k, input(k, cfg.LenBytes))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Fold(ds, ir); err != nil {
			t.Fatal(err)
		}
	}
	planned, err := p.Plan(ds).Fields(ds.K() + 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same watermark and generation, a different dispute: node 6 proven
	// faulty instead of whatever the run found.
	other, err := p.RestoreState(core.SnapshotState{K: ds.K(), Gen: ds.Gen(), Faulty: []graph.NodeID{6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.Graph().Equal(ds.Graph()) {
		t.Fatal("the restored state has the run's G_k; the test needs a different one")
	}
	got, err := p.Plan(other).Fields(other.K() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph == planned.Graph {
		t.Fatalf("restored state at generation %d was handed the other state's plan", other.Gen())
	}
	fresh, err := p.PlanInstance(other, other.K()+1, rand.New(rand.NewSource(core.PlanSeed(cfg.Seed, other.Gen()))))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Fields(other.K() + 1)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "restored", got, want)
	// The planned state keeps its own plan.
	if again, err := p.Plan(ds).Fields(ds.K() + 1); err != nil || again.Graph != planned.Graph {
		t.Fatalf("the run's state lost its plan to the restore (err %v)", err)
	}
}

// planBuilds returns the instances whose execution built a plan, from the
// flight recorder's PhasePlan events, and checks each build precedes the
// instance's phase 1.
func planBuilds(t *testing.T) []int32 {
	t.Helper()
	var ks []int32
	built := map[int32]bool{}
	for _, ev := range flight.Default().Events() {
		if ev.Type != flight.EvPhase {
			continue
		}
		switch ev.Step {
		case flight.PhasePlan:
			ks = append(ks, ev.K)
			built[ev.K] = true
		case flight.Phase1:
			delete(built, ev.K)
		}
	}
	for k := range built {
		t.Errorf("instance %d built a plan but never reached phase 1", k)
	}
	return ks
}

// TestPlanBuildsOncePerGeneration counts plan builds on the lockstep
// runner with the flight recorder on: the churn shape goes through three
// generations (Phase 3 at instances 1 and 2), a clean run through one.
func TestPlanBuildsOncePerGeneration(t *testing.T) {
	clean := churnConfig()
	clean.Adversaries = nil
	for _, tc := range []struct {
		name  string
		cfg   core.Config
		build []int32
	}{
		{"churn", churnConfig(), []int32{1, 2, 3}},
		{"clean", clean, []int32{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flight.Default().Enable(1 << 12)
			defer flight.Default().Disable() // the recorder is process-global
			r, err := core.NewRunner(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 16; k++ {
				if _, err := r.RunInstance(input(k, tc.cfg.LenBytes)); err != nil {
					t.Fatal(err)
				}
			}
			if got := planBuilds(t); !reflect.DeepEqual(got, tc.build) {
				t.Fatalf("plans built by instances %v, want one per generation, by %v", got, tc.build)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/plans.golden")

// TestPlansGolden pins plans to testdata/plans.golden: the scheme draw
// count, a digest of every edge matrix, and every arborescence. The
// networks are the generation-0 G_k of dispute_churn's K7, paced_thin's
// thin7 and E4's six networks, and one K7 G_k after a fold that removes a
// faulty node and a disputed pair's links. The first two networks' lines
// were written by the map-mutating arborescence packer the flow-net
// packer replaced, and the rest by the map-backed graph.Directed, so a
// plan that moves shows here.
func TestPlansGolden(t *testing.T) {
	thin7, err := topo.OneThinLink(7, 2, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	type goldenCase struct {
		name string
		cfg  core.Config
		at   core.SnapshotState // the dispute state the plan is made on
	}
	k7 := core.Config{Graph: topo.CompleteBi(7, 1), Source: 1, F: 2, LenBytes: 1 << 10, Seed: 1}
	cases := []goldenCase{
		{name: "K7 f=2 1KiB", cfg: k7},
		{name: "thin7 f=1 4KiB", cfg: core.Config{Graph: thin7, Source: 1, F: 1, LenBytes: 4 << 10, Seed: 1}},
	}
	for _, pc := range planCases(t)[:6] {
		cases = append(cases, goldenCase{name: pc.name, cfg: pc.cfg})
	}
	cases = append(cases, goldenCase{name: "K7 f=2 1KiB, 5 faulty, 2-3 disputed", cfg: k7,
		at: core.SnapshotState{K: 4, Gen: 2, Disputes: [][2]graph.NodeID{{2, 3}}, Faulty: []graph.NodeID{5}}})
	var sb strings.Builder
	for _, tc := range cases {
		p, err := core.NewProtocol(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.RestoreState(tc.at, nil)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := p.PlanInstance(ds, ds.K()+1, rand.New(rand.NewSource(core.PlanSeed(tc.cfg.Seed, ds.Gen()))))
		if err != nil {
			t.Fatal(err)
		}
		f, err := pl.Fields(ds.K() + 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s: tries=%d gamma=%d rho=%d symbits=%d stripes=%d depth=%d\n",
			tc.name, f.Tries, f.Gamma, f.Rho, f.SymBits, f.Stripes, f.MaxDepth)
		edges := slices.SortedFunc(maps.Keys(f.Matrices), func(a, b graph.Edge) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
		})
		h := sha256.New()
		for _, e := range edges {
			fmt.Fprintf(h, "%d->%d\n%s", e.From, e.To, f.Matrices[e])
		}
		fmt.Fprintf(&sb, "  matrices sha256 %x\n", h.Sum(nil))
		for i, tr := range f.Trees {
			fmt.Fprintf(&sb, "  tree %d:", i)
			for _, e := range tr {
				fmt.Fprintf(&sb, " %d->%d", e.From, e.To)
			}
			sb.WriteString("\n")
		}
	}
	const golden = "testdata/plans.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("plans differ from %s:\n%s", golden, sb.String())
	}
}
