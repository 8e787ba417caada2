package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig1a builds the directed graph of the paper's Figure 1(a): K4 minus the
// 2-4 edge with unit bidirectional links. The figure itself is not printed
// in the text, so the graph is reconstructed from every number the paper
// states: MINCUT(G,1,2) = MINCUT(G,1,4) = 2, MINCUT(G,1,3) = 3 (gamma = 2),
// no edge between nodes 2 and 4, and U_k = 2 once nodes 2 and 3 are in
// dispute (Omega_k = {1,2,4}, {1,3,4}).
func fig1a() *Directed {
	g := NewDirected()
	for _, pair := range [][2]NodeID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {3, 4}} {
		if err := g.AddBiEdge(pair[0], pair[1], 1); err != nil {
			panic(err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewDirected()
	if err := g.AddEdge(1, 1, 1); err == nil {
		t.Error("self-loop: expected error")
	}
	if err := g.AddEdge(1, 2, 0); err == nil {
		t.Error("zero capacity: expected error")
	}
	if err := g.AddEdge(1, 2, -3); err == nil {
		t.Error("negative capacity: expected error")
	}
	if err := g.AddEdge(1, 2, 5); err != nil {
		t.Fatalf("valid edge: %v", err)
	}
	if err := g.AddEdge(1, 2, 5); err == nil {
		t.Error("duplicate edge: expected error")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var g Directed
	g.AddNode(7)
	if !g.HasNode(7) {
		t.Error("zero-value Directed should accept AddNode")
	}
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Errorf("zero-value Directed AddEdge: %v", err)
	}
}

func TestBasicAccessors(t *testing.T) {
	g := fig1a()
	if g.NumNodes() != 4 || g.NumEdges() != 10 {
		t.Fatalf("fig1a has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Cap(1, 2) != 1 || g.Cap(2, 4) != 0 {
		t.Error("Cap lookup wrong")
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 4) {
		t.Error("HasEdge wrong")
	}
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Error("Nodes not sorted")
		}
	}
	out := g.OutEdges(1)
	if len(out) != 3 {
		t.Errorf("OutEdges(1) = %v", out)
	}
	in := g.InEdges(3)
	if len(in) != 3 {
		t.Errorf("InEdges(3) = %v", in)
	}
	nb := g.Neighbors(2)
	if len(nb) != 2 {
		t.Errorf("Neighbors(2) = %v", nb)
	}
	if g.TotalCapacity() != 10 {
		t.Errorf("TotalCapacity = %d, want 10", g.TotalCapacity())
	}
}

func TestRemoveOperations(t *testing.T) {
	g := fig1a()
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("RemoveEdge failed")
	}
	g.RemoveBetween(2, 3)
	if g.HasEdge(2, 3) || g.HasEdge(3, 2) {
		t.Error("RemoveBetween failed")
	}
	g.RemoveNode(4)
	if g.HasNode(4) || g.HasEdge(3, 4) || g.HasEdge(4, 2) {
		t.Error("RemoveNode left residue")
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := fig1a()
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.RemoveEdge(1, 2)
	if g.Equal(c) {
		t.Error("Equal after divergence")
	}
	if !g.HasEdge(1, 2) {
		t.Error("clone shares storage")
	}
}

func TestInduced(t *testing.T) {
	g := fig1a()
	h := g.Induced([]NodeID{1, 2, 4})
	if h.NumNodes() != 3 {
		t.Fatalf("induced nodes = %d", h.NumNodes())
	}
	if h.HasEdge(2, 3) || h.HasEdge(1, 3) {
		t.Error("induced kept edges to removed node")
	}
	if !h.HasEdge(1, 2) || !h.HasEdge(1, 4) || !h.HasEdge(4, 1) {
		t.Error("induced dropped internal edges")
	}
	// Inducing on nodes not in g ignores them.
	h2 := g.Induced([]NodeID{1, 99})
	if h2.NumNodes() != 1 {
		t.Errorf("induced with foreign node: %d nodes", h2.NumNodes())
	}
}

func TestFig1aMincuts(t *testing.T) {
	// The paper's Section 2 worked example: MINCUT(Gk,1,2) =
	// MINCUT(Gk,1,4) = 2, MINCUT(Gk,1,3) = 3, gamma_k = 2.
	g := fig1a()
	cases := map[NodeID]int64{2: 2, 3: 3, 4: 2}
	for target, want := range cases {
		got, err := g.MaxFlow(1, target)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("MINCUT(G,1,%d) = %d, want %d", target, got, want)
		}
	}
	gamma, err := g.BroadcastMincut(1)
	if err != nil {
		t.Fatal(err)
	}
	if gamma != 2 {
		t.Errorf("gamma = %d, want 2", gamma)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := fig1a()
	if _, err := g.MaxFlow(1, 1); err == nil {
		t.Error("s==t: expected error")
	}
	if _, err := g.MaxFlow(1, 99); err == nil {
		t.Error("missing node: expected error")
	}
	if _, err := g.BroadcastMincut(99); err == nil {
		t.Error("missing source: expected error")
	}
	lone := NewDirected()
	lone.AddNode(1)
	if _, err := lone.BroadcastMincut(1); err == nil {
		t.Error("single node: expected error")
	}
	disc := NewDirected()
	disc.MustAddEdge(1, 2, 1)
	disc.AddNode(3)
	if _, err := disc.BroadcastMincut(1); err == nil {
		t.Error("unreachable node: expected error")
	}
}

func TestMaxFlowKnownValues(t *testing.T) {
	// Classic diamond: 1->2, 1->3 cap 10; 2->4, 3->4 cap 10; 2->3 cap 1.
	g := NewDirected()
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(1, 3, 10)
	g.MustAddEdge(2, 4, 10)
	g.MustAddEdge(3, 4, 10)
	g.MustAddEdge(2, 3, 1)
	got, err := g.MaxFlow(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("diamond maxflow = %d, want 20", got)
	}
	// Bottleneck path 1->2->3 with caps 5, 3.
	p := NewDirected()
	p.MustAddEdge(1, 2, 5)
	p.MustAddEdge(2, 3, 3)
	got, err = p.MaxFlow(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("path maxflow = %d, want 3", got)
	}
}

func TestMaxFlowRandomDualityQuick(t *testing.T) {
	// Property: maxflow value is at most total capacity out of s and at
	// most total capacity into t, and removing the source kills all flow.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedDigraph(rng, 6, 3)
		val, err := g.MaxFlow(1, 6)
		if err != nil {
			return false
		}
		var outCap, inCap int64
		for _, e := range g.OutEdges(1) {
			outCap += e.Cap
		}
		for _, e := range g.InEdges(6) {
			inCap += e.Cap
		}
		return val <= outCap && val <= inCap
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomConnectedDigraph builds a digraph on nodes 1..n that includes a
// bidirectional ring (so everything is reachable) plus random chords with
// capacities in [1, maxCap].
func randomConnectedDigraph(rng *rand.Rand, n int, maxCap int64) *Directed {
	g := NewDirected()
	for i := 1; i <= n; i++ {
		next := i%n + 1
		g.MustAddEdge(NodeID(i), NodeID(next), 1+rng.Int63n(maxCap))
		g.MustAddEdge(NodeID(next), NodeID(i), 1+rng.Int63n(maxCap))
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i == j || g.HasEdge(NodeID(i), NodeID(j)) {
				continue
			}
			if rng.Intn(3) == 0 {
				g.MustAddEdge(NodeID(i), NodeID(j), 1+rng.Int63n(maxCap))
			}
		}
	}
	return g
}

// TestUndirectedConversion checks the paper's undirected capacity: an
// edge's capacity is the sum of its two directed capacities, and the
// directed graph itself is left as it was.
func TestUndirectedConversion(t *testing.T) {
	g := NewDirected()
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 1, 3)
	got, err := g.MinPairwiseMincut()
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("undirected cap(1,2) = %d, want 5", got)
	}
	g.MustAddEdge(2, 3, 1)
	if got, err = g.MinPairwiseMincut(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("undirected cap(2,3) = %d, want 1", got)
	}
	if g.NumEdges() != 3 || g.Cap(1, 2) != 2 || g.Cap(2, 1) != 3 {
		t.Errorf("MinPairwiseMincut changed g: %v", g)
	}
}

// TestUndirectedMaxFlowAndPairwiseMincut checks U on a triangle whose
// undirected capacities are 1-2:3, 2-3:1, 1-3:1. Isolating 3 cuts 1+1 = 2,
// isolating 2 cuts 3+1 = 4, isolating 1 cuts 3+1 = 4, so U = 2 however
// the capacities split between the two directions.
func TestUndirectedMaxFlowAndPairwiseMincut(t *testing.T) {
	for _, edges := range [][]Edge{
		{{1, 2, 3}, {2, 3, 1}, {1, 3, 1}},
		{{1, 2, 2}, {2, 1, 1}, {2, 3, 1}, {3, 1, 1}},
	} {
		g := NewDirected()
		for _, e := range edges {
			g.MustAddEdge(e.From, e.To, e.Cap)
		}
		got, err := g.MinPairwiseMincut()
		if err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Errorf("%v: min pairwise mincut = %d, want 2", edges, got)
		}
	}
}

func TestMinPairwiseMincutErrors(t *testing.T) {
	g := NewDirected()
	g.AddNode(1)
	if _, err := g.MinPairwiseMincut(); err == nil {
		t.Error("single node: expected error")
	}
	g.AddNode(2)
	if _, err := g.MinPairwiseMincut(); err == nil {
		t.Error("disconnected: expected error")
	}
}

func TestNodeDisjointPaths(t *testing.T) {
	// Complete bidirectional graph on 5 nodes: 4 node-disjoint paths
	// between any pair (1 direct + 3 via distinct intermediates).
	g := completeBi(5, 1)
	paths, err := g.NodeDisjointPaths(1, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("got %d disjoint paths, want 4: %v", len(paths), paths)
	}
	if err := validatePaths(paths, 1, 5); err != nil {
		t.Fatal(err)
	}
	// Trimming works.
	paths, err = g.NodeDisjointPaths(1, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Errorf("want=2 got %d", len(paths))
	}
}

func TestNodeDisjointPathsErrors(t *testing.T) {
	g := completeBi(3, 1)
	if _, err := g.NodeDisjointPaths(1, 1, 1); err == nil {
		t.Error("s==t: expected error")
	}
	if _, err := g.NodeDisjointPaths(1, 9, 1); err == nil {
		t.Error("missing node: expected error")
	}
	if _, err := g.NodeDisjointPaths(1, 2, 0); err == nil {
		t.Error("want=0: expected error")
	}
}

func TestNodeDisjointPathsNone(t *testing.T) {
	g := NewDirected()
	g.MustAddEdge(1, 2, 1)
	g.AddNode(3)
	paths, err := g.NodeDisjointPaths(1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Errorf("unreachable target returned paths: %v", paths)
	}
}

func completeBi(n int, c int64) *Directed {
	g := NewDirected()
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i != j {
				g.MustAddEdge(NodeID(i), NodeID(j), c)
			}
		}
	}
	return g
}

func TestVertexConnectivity(t *testing.T) {
	// K5 bidirectional has vertex connectivity 4.
	k, err := completeBi(5, 1).VertexConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("K5 connectivity = %d, want 4", k)
	}
	// Bidirectional ring on 5 nodes has connectivity 2.
	ring := NewDirected()
	for i := 1; i <= 5; i++ {
		next := i%5 + 1
		ring.MustAddEdge(NodeID(i), NodeID(next), 1)
		ring.MustAddEdge(NodeID(next), NodeID(i), 1)
	}
	k, err = ring.VertexConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("ring connectivity = %d, want 2", k)
	}
}

func TestVertexConnectivityPairDirect(t *testing.T) {
	// Path graph 1->2->3: connectivity pair (1,3) = 1, (1,2) = 1.
	g := NewDirected()
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	k, err := g.VertexConnectivityPair(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("path pair connectivity = %d, want 1", k)
	}
}

func TestParseMarshalRoundTrip(t *testing.T) {
	g := fig1a()
	g.AddNode(9) // isolated node survives round trip
	text := g.Marshal()
	back, err := ParseDirected(text)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", g, back)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1 2",          // missing field
		"a 2 3",        // bad from
		"1 b 3",        // bad to
		"1 2 x",        // bad cap
		"1 2 0",        // zero cap
		"1 1 3",        // self loop
		"node xyz",     // bad node id
		"1 2 3\n1 2 4", // duplicate
	}
	for _, text := range bad {
		if _, err := ParseDirected(text); err == nil {
			t.Errorf("ParseDirected(%q): expected error", text)
		}
	}
}

func TestParseComments(t *testing.T) {
	g, err := ParseDirected("# header\n\n1 2 3\n  # indented comment\nnode 7\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || !g.HasNode(7) {
		t.Errorf("parsed graph wrong: %v", g)
	}
}

func TestStringDeterministic(t *testing.T) {
	a, b := fig1a().String(), fig1a().String()
	if a != b {
		t.Error("String not deterministic")
	}
}

func BenchmarkMaxFlow10(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedDigraph(rng, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MaxFlow(1, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVertexConnectivity8(b *testing.B) {
	g := completeBi(8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.VertexConnectivity(); err != nil {
			b.Fatal(err)
		}
	}
}
