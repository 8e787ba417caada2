package spantree

import (
	"math/rand"
	"testing"

	"nab/internal/graph"
)

// fig2a reconstructs the paper's Figure 2(a): a 4-node directed graph that
// embeds 2 unit-capacity spanning arborescences rooted at node 1, where
// edge (1,2) has capacity 2 and is used by both trees (total usage 2).
func fig2a() *graph.Directed {
	g := graph.NewDirected()
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(1, 4, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(4, 3, 1)
	g.MustAddEdge(2, 4, 1)
	g.MustAddEdge(3, 4, 1) // extra capacity; trees may or may not use it
	g.MustAddEdge(3, 2, 1)
	return g
}

func fig1a() *graph.Directed {
	g := graph.NewDirected()
	for _, pair := range [][2]graph.NodeID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {3, 4}} {
		if err := g.AddBiEdge(pair[0], pair[1], 1); err != nil {
			panic(err)
		}
	}
	return g
}

func TestPackArborescencesFig2(t *testing.T) {
	g := fig2a()
	gamma, err := g.BroadcastMincut(1)
	if err != nil {
		t.Fatal(err)
	}
	if gamma < 2 {
		t.Fatalf("fig2a gamma = %d, want >= 2", gamma)
	}
	trees, err := PackArborescences(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("packed %d trees, want 2", len(trees))
	}
	validatePacking(t, g, 1, trees)
	// Edge (1,2) has capacity 2 and is on every 1->2 route except via 4..3;
	// in this topology node 2's only other in-edge is (3,2).
	use12 := 0
	for _, tr := range trees {
		if tr.Parent[2] == 1 {
			use12++
		}
	}
	if use12 == 0 {
		t.Error("no tree uses edge (1,2); expected at least one")
	}
}

func TestPackArborescencesFig1a(t *testing.T) {
	g := fig1a() // gamma = 2
	trees, err := PackArborescences(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	validatePacking(t, g, 1, trees)
}

// validatePacking checks every tree is a valid spanning arborescence and
// combined usage respects capacities.
func validatePacking(t *testing.T, g *graph.Directed, root graph.NodeID, trees []*Arborescence) {
	t.Helper()
	usage := map[[2]graph.NodeID]int64{}
	for ti, tr := range trees {
		if tr.Root != root {
			t.Fatalf("tree %d root = %d, want %d", ti, tr.Root, root)
		}
		if err := tr.Validate(g); err != nil {
			t.Fatalf("tree %d invalid: %v", ti, err)
		}
		for c, p := range tr.Parent {
			usage[[2]graph.NodeID{p, c}]++
		}
	}
	for key, used := range usage {
		if c := g.Cap(key[0], key[1]); used > c {
			t.Fatalf("edge %v used %d times, capacity %d", key, used, c)
		}
	}
}

func TestPackArborescencesInsufficientCut(t *testing.T) {
	g := graph.NewDirected()
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := PackArborescences(g, 1, 2); err == nil {
		t.Error("k=2 with mincut 1: expected error")
	}
}

func TestPackArborescencesArgValidation(t *testing.T) {
	g := fig1a()
	if _, err := PackArborescences(g, 1, 0); err == nil {
		t.Error("k=0: expected error")
	}
	if _, err := PackArborescences(g, 99, 1); err == nil {
		t.Error("missing root: expected error")
	}
}

func TestPackArborescencesParallelEdges(t *testing.T) {
	// Two nodes joined by capacity-3 edge: three trees each the single edge.
	g := graph.NewDirected()
	g.MustAddEdge(1, 2, 3)
	trees, err := PackArborescences(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 3 {
		t.Fatalf("packed %d, want 3", len(trees))
	}
	validatePacking(t, g, 1, trees)
}

func TestPackArborescencesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(4)
		g := randomStrongDigraph(rng, n, 3)
		gamma, err := g.BroadcastMincut(1)
		if err != nil {
			t.Fatal(err)
		}
		k := int(gamma)
		trees, err := PackArborescences(g, 1, k)
		if err != nil {
			t.Fatalf("trial %d (gamma=%d): %v\n%s", trial, gamma, err, g)
		}
		validatePacking(t, g, 1, trees)
	}
}

func randomStrongDigraph(rng *rand.Rand, n int, maxCap int64) *graph.Directed {
	g := graph.NewDirected()
	for i := 1; i <= n; i++ {
		next := i%n + 1
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(next), 1+rng.Int63n(maxCap))
		g.MustAddEdge(graph.NodeID(next), graph.NodeID(i), 1+rng.Int63n(maxCap))
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i == j || g.HasEdge(graph.NodeID(i), graph.NodeID(j)) {
				continue
			}
			if rng.Intn(2) == 0 {
				g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), 1+rng.Int63n(maxCap))
			}
		}
	}
	return g
}

func TestArborescenceHelpers(t *testing.T) {
	a := &Arborescence{Root: 1, Parent: map[graph.NodeID]graph.NodeID{2: 1, 3: 2, 4: 1}}
	if d := a.Depth(); d != 2 {
		t.Errorf("Depth = %d, want 2", d)
	}
	p, err := a.PathFromRoot(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[0] != 1 || p[2] != 3 {
		t.Errorf("PathFromRoot(3) = %v", p)
	}
	if _, err := a.PathFromRoot(9); err == nil {
		t.Error("missing vertex: expected error")
	}
	edges := a.Edges()
	if len(edges) != 3 {
		t.Errorf("Edges = %v", edges)
	}
}

func TestArborescenceValidateRejects(t *testing.T) {
	g := fig1a()
	// wrong edge
	bad := &Arborescence{Root: 1, Parent: map[graph.NodeID]graph.NodeID{2: 1, 3: 1, 4: 2}}
	if err := bad.Validate(g); err == nil {
		t.Error("edge (2,4) not in fig1a; expected error")
	}
	// not spanning
	short := &Arborescence{Root: 1, Parent: map[graph.NodeID]graph.NodeID{2: 1}}
	if err := short.Validate(g); err == nil {
		t.Error("non-spanning: expected error")
	}
	// cycle
	cyc := &Arborescence{Root: 1, Parent: map[graph.NodeID]graph.NodeID{2: 3, 3: 2, 4: 1}}
	if err := cyc.Validate(g); err == nil {
		t.Error("cycle: expected error")
	}
	// missing root
	noRoot := &Arborescence{Root: 42, Parent: map[graph.NodeID]graph.NodeID{}}
	if err := noRoot.Validate(g); err == nil {
		t.Error("missing root: expected error")
	}
}

func TestPackUndirectedTreesFig1a(t *testing.T) {
	g := fig1a()
	// Undirected version: all five pairs at capacity 2; U = min pairwise
	// mincut = 4 (each node has undirected degree >= 4)... compute it.
	minCut, err := g.MinPairwiseMincut()
	if err != nil {
		t.Fatal(err)
	}
	k := int(minCut / 2)
	trees, err := PackUndirectedTrees(g, k)
	if err != nil {
		t.Fatalf("packing %d trees (U=%d): %v", k, minCut, err)
	}
	if err := ValidateTreePacking(g, trees); err != nil {
		t.Fatal(err)
	}
}

func TestPackUndirectedTreesSlotGranularity(t *testing.T) {
	// Cap-2 directed edge yields two unit edges usable by different trees.
	g := graph.NewDirected()
	g.MustAddEdge(1, 2, 2)
	trees, err := PackUndirectedTrees(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTreePacking(g, trees); err != nil {
		t.Fatal(err)
	}
	slots := map[int]bool{}
	for _, tr := range trees {
		if len(tr) != 1 {
			t.Fatalf("tree = %v, want single edge", tr)
		}
		slots[tr[0].Slot] = true
	}
	if len(slots) != 2 {
		t.Errorf("trees reused the same slot: %v", trees)
	}
}

func TestPackUndirectedTreesInfeasible(t *testing.T) {
	g := graph.NewDirected()
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := PackUndirectedTrees(g, 2); err == nil {
		t.Error("path graph cannot pack 2 trees; expected error")
	}
	if _, err := PackUndirectedTrees(g, 0); err == nil {
		t.Error("k=0: expected error")
	}
	single := graph.NewDirected()
	single.AddNode(1)
	if _, err := PackUndirectedTrees(single, 1); err == nil {
		t.Error("single node: expected error")
	}
}

func TestPackUndirectedTreesNashWilliamsGuarantee(t *testing.T) {
	// Property: every random graph packs floor(U/2) trees (Nash-Williams/
	// Tutte via the paper's citation [16]).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(4)
		g := randomStrongDigraph(rng, n, 2)
		minCut, err := g.MinPairwiseMincut()
		if err != nil {
			t.Fatal(err)
		}
		k := int(minCut / 2)
		if k == 0 {
			continue
		}
		trees, err := PackUndirectedTrees(g, k)
		if err != nil {
			t.Fatalf("trial %d: U=%d k=%d: %v\n%s", trial, minCut, k, err, g)
		}
		if err := ValidateTreePacking(g, trees); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestValidateTreePackingRejects(t *testing.T) {
	g := fig1a()
	// Build one valid tree then corrupt it.
	trees, err := PackUndirectedTrees(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// duplicate a unit edge across two trees
	dup := [][]UnitEdge{trees[0], trees[0]}
	if err := ValidateTreePacking(g, dup); err == nil {
		t.Error("duplicated tree: expected error")
	}
	// wrong edge count
	if err := ValidateTreePacking(g, [][]UnitEdge{trees[0][:1]}); err == nil {
		t.Error("short tree: expected error")
	}
	// slot beyond capacity
	badSlot := make([]UnitEdge, len(trees[0]))
	copy(badSlot, trees[0])
	badSlot[0].Slot = 99
	if err := ValidateTreePacking(g, [][]UnitEdge{badSlot}); err == nil {
		t.Error("bad slot: expected error")
	}
}

func BenchmarkPackArborescences6(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomStrongDigraph(rng, 6, 3)
	gamma, err := g.BroadcastMincut(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PackArborescences(g, 1, int(gamma)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackUndirectedTrees6(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomStrongDigraph(rng, 6, 3)
	minCut, err := g.MinPairwiseMincut()
	if err != nil {
		b.Fatal(err)
	}
	k := int(minCut / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PackUndirectedTrees(g, k); err != nil {
			b.Fatal(err)
		}
	}
}
