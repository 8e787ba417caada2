package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nab/internal/adversary"
	"nab/internal/coding"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
)

// TestSharedEqualityMatchesCheckStripes checks the equality check of
// co-hosted nodes, which share one packed X per value and one encoding per
// edge, against the receiver-side check of the paper. With every node of
// K4 and K7 in one execution, under each cast, every node's recorded
// symbols must be what its in-neighbours sent, and its flag must be the OR
// of CheckStripes over its in-edges on its own x.
func TestSharedEqualityMatchesCheckStripes(t *testing.T) {
	casts := []struct {
		name string
		adv  func(seed int64) core.Adversary // nil: everyone honest
		// shared: some edge must join honest nodes of one value, so the
		// shared path runs. divergent: some edge must join honest nodes of
		// different values, so it meets a receiver whose x is not its
		// sender's.
		shared, divergent bool
	}{
		{name: "honest", shared: true},
		{name: "flip", adv: func(int64) core.Adversary { return &adversary.BlockFlipper{} }, shared: true, divergent: true},
		{name: "coded", adv: func(int64) core.Adversary { return &adversary.CodedCorruptor{} }, shared: true},
		{name: "crash", adv: func(int64) core.Adversary { return adversary.Crash{} }, shared: true},
		// Random corrupts so many blocks that honest values rarely agree.
		{name: "random", adv: func(seed int64) core.Adversary { return &adversary.Random{Seed: seed} }},
	}
	shapes := []struct {
		name   string
		g      *graph.Directed
		f      int
		faulty []graph.NodeID
	}{
		{"K4", topo.CompleteBi(4, 1), 1, []graph.NodeID{2}},
		{"K7", topo.CompleteBi(7, 1), 2, []graph.NodeID{2, 5}},
	}
	for _, sh := range shapes {
		for _, cast := range casts {
			t.Run(sh.name+"/"+cast.name, func(t *testing.T) {
				advs := map[graph.NodeID]core.Adversary{}
				if cast.adv != nil {
					for i, v := range sh.faulty {
						advs[v] = cast.adv(int64(17 + i))
					}
				}
				cfg := core.Config{Graph: sh.g, Source: 1, F: sh.f, LenBytes: 72, Seed: 5, Adversaries: advs}
				rng := rand.New(rand.NewSource(3))
				inputs := make([][]byte, 8)
				for i := range inputs {
					inputs[i] = make([]byte, cfg.LenBytes)
					rng.Read(inputs[i])
				}
				runs, err := core.EqualityRuns(cfg, inputs)
				if err != nil {
					t.Fatal(err)
				}
				if len(runs) == 0 {
					t.Fatal("no instance ran the equality check")
				}
				shared, divergent := 0, 0
				for _, run := range runs {
					s, d := checkEqualityRun(t, run, advs)
					shared += s
					divergent += d
				}
				if cast.shared && shared == 0 {
					t.Error("no edge joined two honest nodes of one value: the shared path never ran")
				}
				if cast.divergent && divergent == 0 {
					t.Error("no edge joined honest nodes of different values")
				}
			})
		}
	}
}

// checkEqualityRun checks one instance's equality check and returns how
// many G_k edges joined honest nodes of one value and how many joined
// honest nodes of different values.
func checkEqualityRun(t *testing.T, run core.EqualityRun, advs map[graph.NodeID]core.Adversary) (shared, divergent int) {
	t.Helper()
	for v, nd := range run.Nodes {
		// The packing rule: equal values share one x, others do not.
		for u, other := range run.Nodes {
			same := &nd.X[0] == &other.X[0]
			if equal := bytes.Equal(nd.Value, other.Value); same != equal {
				t.Fatalf("instance %d: nodes %d and %d: equal values %v but shared x %v", run.K, v, u, equal, same)
			}
		}
		flag, got := false, 0
		for _, rc := range nd.RecvCoded {
			where := fmt.Sprintf("instance %d: edge (%d,%d)", run.K, rc.From, v)
			if rc.To != v {
				t.Fatalf("%s recorded as received by %d", where, rc.To)
			}
			sent, ok := run.Sent[[2]graph.NodeID{rc.From, v}]
			if ok != (rc.Symbols != nil) || !coding.ValuesEqual(sent, rc.Symbols) {
				t.Fatalf("%s: recorded %v, sent %v", where, rc.Symbols, sent)
			}
			mm, err := run.Scheme.CheckStripes(rc.From, v, nd.X, rc.Symbols)
			if err != nil {
				t.Fatal(err)
			}
			flag = flag || mm
			if ok {
				got++
			}
			from, hosted := run.Nodes[rc.From]
			if _, bad := advs[rc.From]; bad || !hosted {
				continue
			}
			if _, bad := advs[v]; bad {
				continue
			}
			if &from.X[0] == &nd.X[0] {
				shared++
			} else {
				divergent++
			}
		}
		for e := range run.Sent {
			if e[1] == v {
				got--
			}
		}
		if got != 0 {
			t.Fatalf("instance %d: node %d recorded %d more in-edges than were sent to it", run.K, v, got)
		}
		if nd.Flag != flag {
			t.Fatalf("instance %d: node %d flag %v, CheckStripes over its in-edges gives %v", run.K, v, nd.Flag, flag)
		}
	}
	return shared, divergent
}
