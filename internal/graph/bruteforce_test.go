package graph_test

import (
	"math/rand"
	"testing"

	"nab/internal/graph"
	"nab/internal/topo"
)

// cutWeights enumerates every bipartition (S, V\S) of g's nodes with
// nodes[0] in S, and returns for each the capacity of the arcs leaving S
// and of the arcs in both directions across it.
func cutWeights(g *graph.Directed) (out, both []int64) {
	nodes := g.Nodes()
	n := len(nodes)
	for mask := 1; mask < 1<<n-1; mask += 2 { // bit 0 set: nodes[0] in S
		var o, b int64
		for _, e := range g.Edges() {
			from, to := inSet(nodes, mask, e.From), inSet(nodes, mask, e.To)
			if from != to {
				b += e.Cap
			}
			if from && !to {
				o += e.Cap
			}
		}
		out, both = append(out, o), append(both, b)
	}
	return out, both
}

func inSet(nodes []graph.NodeID, mask int, v graph.NodeID) bool {
	for i, u := range nodes {
		if u == v {
			return mask&(1<<i) != 0
		}
	}
	return false
}

func minOf(ws []int64) int64 {
	best := ws[0]
	for _, w := range ws[1:] {
		best = min(best, w)
	}
	return best
}

// randomGraphs returns seeded topo.RandomConnected graphs of 3 to 8 nodes,
// whose chords make antiparallel capacities differ.
func randomGraphs(t *testing.T) []*graph.Directed {
	t.Helper()
	var gs []*graph.Directed
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed)%6
		g, err := topo.RandomConnected(rng, n, 1+rng.Intn((n-1)/2*2), 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestMinPairwiseMincutMatchesBruteForce checks U against the lightest
// bipartition of the undirected version: every cut counts the arcs
// crossing it in either direction.
func TestMinPairwiseMincutMatchesBruteForce(t *testing.T) {
	for i, g := range randomGraphs(t) {
		got, err := g.MinPairwiseMincut()
		if err != nil {
			t.Fatal(err)
		}
		_, both := cutWeights(g)
		if want := minOf(both); got != want {
			t.Fatalf("graph %d (%v): MinPairwiseMincut = %d, lightest bipartition = %d", i, g, got, want)
		}
	}
}

// TestBroadcastMincutMatchesBruteForce checks gamma against the lightest
// cut with the source (the smallest node id) on its sending side.
func TestBroadcastMincutMatchesBruteForce(t *testing.T) {
	for i, g := range randomGraphs(t) {
		got, err := g.BroadcastMincut(g.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		out, _ := cutWeights(g)
		if want := minOf(out); got != want {
			t.Fatalf("graph %d (%v): BroadcastMincut = %d, lightest source cut = %d", i, g, got, want)
		}
	}
}
