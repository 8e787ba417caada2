package dispute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nab/internal/graph"
)

func fig1a() *graph.Directed {
	g := graph.NewDirected()
	for _, pair := range [][2]graph.NodeID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {3, 4}} {
		if err := g.AddBiEdge(pair[0], pair[1], 1); err != nil {
			panic(err)
		}
	}
	return g
}

func mustAdd(t *testing.T, s *Set, a, b graph.NodeID) {
	t.Helper()
	if err := s.Add(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if err := s.Add(1, 1); err == nil {
		t.Error("self-dispute: expected error")
	}
	mustAdd(t, s, 2, 3)
	mustAdd(t, s, 3, 2) // same pair, reversed
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Has(3, 2) || !s.Has(2, 3) {
		t.Error("Has should be symmetric")
	}
	if s.Has(1, 2) {
		t.Error("phantom dispute")
	}
	mustAdd(t, s, 1, 3)
	sup := s.Support()
	if len(sup) != 3 {
		t.Errorf("Support = %v", sup)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestClone(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, 1, 2)
	c := s.Clone()
	mustAdd(t, c, 3, 4)
	if s.Has(3, 4) {
		t.Error("clone shares storage")
	}
	if !c.Has(1, 2) || c.Len() != 2 {
		t.Error("clone lost a dispute")
	}
}

func TestCoverExists(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, 1, 2)
	mustAdd(t, s, 1, 3)
	// {1} covers both.
	if !s.CoverExists(1, -1) {
		t.Error("cover {1} not found")
	}
	// Avoiding 1 needs {2,3}.
	if s.CoverExists(1, 1) {
		t.Error("budget 1 avoiding 1 should fail")
	}
	if !s.CoverExists(2, 1) {
		t.Error("budget 2 avoiding 1 should succeed")
	}
	// Empty set is covered by nothing.
	if !NewSet().CoverExists(0, -1) {
		t.Error("empty set needs no cover")
	}
}

func TestConfirmedFaultyStar(t *testing.T) {
	// Star of f+1 = 3 disputes centered at node 5 with f=2: node 5 is in
	// every explaining set (matching the paper's "in dispute with f+1
	// distinct nodes => faulty").
	s := NewSet()
	mustAdd(t, s, 5, 1)
	mustAdd(t, s, 5, 2)
	mustAdd(t, s, 5, 3)
	confirmed, err := s.ConfirmedFaulty(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 1 || confirmed[0] != 5 {
		t.Errorf("confirmed = %v, want [5]", confirmed)
	}
}

func TestConfirmedFaultySingleDisputeAmbiguous(t *testing.T) {
	// One dispute {2,3} with f=1: either node explains it; intersection
	// is empty (the paper's Figure 1(b) situation).
	s := NewSet()
	mustAdd(t, s, 2, 3)
	confirmed, err := s.ConfirmedFaulty(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 0 {
		t.Errorf("confirmed = %v, want empty", confirmed)
	}
}

func TestConfirmedFaultyBoundViolation(t *testing.T) {
	// Matching of 3 disjoint disputes needs 3 nodes; with f=2 the fault
	// bound is violated and the call must error.
	s := NewSet()
	mustAdd(t, s, 1, 2)
	mustAdd(t, s, 3, 4)
	mustAdd(t, s, 5, 6)
	if _, err := s.ConfirmedFaulty(2); err == nil {
		t.Error("expected fault-bound violation error")
	}
}

func TestMarkFaultyForcesConfirmation(t *testing.T) {
	// fig1a has connectivity 3 >= 2f+1 with f=1; marking node 2 faulty puts
	// it in dispute with its 2 neighbours (1 and 3), so every 1-cover must
	// contain node 2.
	g := fig1a()
	s := NewSet()
	if err := s.MarkFaulty(g, 2); err != nil {
		t.Fatal(err)
	}
	confirmed, err := s.ConfirmedFaulty(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 1 || confirmed[0] != 2 {
		t.Errorf("confirmed = %v, want [2]", confirmed)
	}
}

func TestApplyFig1b(t *testing.T) {
	// The paper's Figure 1(b): G with nodes 2,3 in dispute -> edges between
	// 2 and 3 removed, no node confirmed.
	g := fig1a()
	s := NewSet()
	mustAdd(t, s, 2, 3)
	gk, confirmed, err := s.Apply(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 0 {
		t.Errorf("confirmed = %v", confirmed)
	}
	if gk.HasEdge(2, 3) || gk.HasEdge(3, 2) {
		t.Error("dispute edges not removed")
	}
	if gk.NumNodes() != 4 || !gk.HasEdge(1, 2) {
		t.Error("apply removed too much")
	}
}

func TestApplyRemovesConfirmed(t *testing.T) {
	g := fig1a()
	s := NewSet()
	if err := s.MarkFaulty(g, 3); err != nil {
		t.Fatal(err)
	}
	gk, confirmed, err := s.Apply(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 1 || confirmed[0] != 3 {
		t.Fatalf("confirmed = %v, want [3]", confirmed)
	}
	if gk.HasNode(3) {
		t.Error("node 3 not removed")
	}
	if gk.NumNodes() != 3 {
		t.Errorf("nodes = %d, want 3", gk.NumNodes())
	}
}

func TestOmegaFig1b(t *testing.T) {
	// Paper worked example: after dispute {2,3}, Omega_k has exactly the
	// two subgraphs {1,2,4} and {1,3,4}.
	g := fig1a()
	s := NewSet()
	mustAdd(t, s, 2, 3)
	gk, _, err := s.Apply(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	omega := Omega(gk, s, 3)
	if len(omega) != 2 {
		t.Fatalf("Omega has %d subgraphs, want 2", len(omega))
	}
	want := [][]graph.NodeID{{1, 2, 4}, {1, 3, 4}}
	for i, h := range omega {
		nodes := h.Nodes()
		for j := range want[i] {
			if nodes[j] != want[i][j] {
				t.Errorf("subgraph %d = %v, want %v", i, nodes, want[i])
			}
		}
	}
}

func TestOmegaNoDisputes(t *testing.T) {
	g := fig1a()
	omega := Omega(g, NewSet(), 3)
	if len(omega) != 4 { // C(4,3)
		t.Errorf("Omega size = %d, want 4", len(omega))
	}
	// Degenerate wants.
	if Omega(g, NewSet(), 0) != nil {
		t.Error("want=0 should be nil")
	}
	if Omega(g, NewSet(), 9) != nil {
		t.Error("want>n should be nil")
	}
}

func TestOmegaSubgraphsExcludeDisputeEdges(t *testing.T) {
	// Subgraphs are induced from gk, which already lost dispute edges.
	g := fig1a()
	s := NewSet()
	mustAdd(t, s, 1, 2)
	gk, _, err := s.Apply(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range Omega(gk, s, 3) {
		if h.HasEdge(1, 2) || h.HasEdge(2, 1) {
			t.Error("Omega subgraph contains dispute edge")
		}
		// No subgraph contains both 1 and 2.
		if h.HasNode(1) && h.HasNode(2) {
			t.Error("Omega subgraph contains disputing pair")
		}
	}
}

// TestConfirmedFaultyNeverHonest is the key safety property: when disputes
// are generated so that every pair contains at least one member of a
// hidden faulty set F (|F| <= f), ConfirmedFaulty must return a subset of F.
func TestConfirmedFaultyNeverHonest(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		f := 1 + rng.Intn(2)
		// Hidden faulty set.
		perm := rng.Perm(n)
		faulty := map[graph.NodeID]bool{}
		for i := 0; i < f; i++ {
			faulty[graph.NodeID(perm[i]+1)] = true
		}
		s := NewSet()
		// Random disputes, each touching a faulty node.
		for i := 0; i < rng.Intn(6)+1; i++ {
			var fn graph.NodeID
			for v := range faulty {
				fn = v
				break
			}
			other := graph.NodeID(rng.Intn(n) + 1)
			if other == fn {
				continue
			}
			if err := s.Add(fn, other); err != nil {
				return false
			}
		}
		confirmed, err := s.ConfirmedFaulty(f)
		if err != nil {
			return false
		}
		for _, v := range confirmed {
			if !faulty[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDisputeBoundFF1(t *testing.T) {
	// The paper bounds dispute-control executions by f(f+1): each run adds
	// a new dispute pair or confirms a new faulty node, and a node pairs
	// with at most f+1 others before confirmation. Verify the bound: a
	// dispute set explained by <= f nodes has at most f*(n-1) pairs but
	// once any node reaches f+1 disputants it is confirmed; simulate the
	// worst accumulation.
	g := fig1a()
	_ = g
	s := NewSet()
	f := 1
	added := 0
	// Adversary strategy: node 2 disputes with 1 then 3 (f+1 = 2 pairs).
	mustAdd(t, s, 2, 1)
	added++
	confirmed, err := s.ConfirmedFaulty(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 0 {
		t.Fatal("confirmed too early")
	}
	mustAdd(t, s, 2, 3)
	added++
	confirmed, err = s.ConfirmedFaulty(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(confirmed) != 1 || confirmed[0] != 2 {
		t.Fatalf("confirmed = %v, want [2]", confirmed)
	}
	if added > f*(f+1) {
		t.Errorf("needed %d dispute rounds, bound is %d", added, f*(f+1))
	}
}
