package spantree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nab/internal/graph"
	"nab/internal/topo"
)

// refPackArborescences is the map-mutating packer PackArborescences
// replaced: it grows each tree on a clone of g, removing and re-adding
// edges to probe, and rebuilds a flow net for every max-flow. It is kept
// as the reference the flow-net packer must match tree for tree.
func refPackArborescences(g *graph.Directed, root graph.NodeID, k int) ([]*Arborescence, error) {
	if k <= 0 {
		return nil, fmt.Errorf("spantree: k = %d must be positive", k)
	}
	if !g.HasNode(root) {
		return nil, fmt.Errorf("spantree: root %d not in graph", root)
	}
	for _, v := range g.Nodes() {
		if v == root {
			continue
		}
		mc, err := g.MaxFlow(root, v)
		if err != nil {
			return nil, fmt.Errorf("spantree: %w", err)
		}
		if mc < int64(k) {
			return nil, fmt.Errorf("spantree: MINCUT(root,%d) = %d < k = %d", v, mc, k)
		}
	}
	work := g.Clone()
	trees := make([]*Arborescence, 0, k)
	for t := k; t >= 1; t-- {
		tree, err := refExtractArborescence(work, root, t)
		if err != nil {
			return nil, fmt.Errorf("spantree: extracting tree %d: %w", k-t+1, err)
		}
		trees = append(trees, tree)
	}
	return trees, nil
}

// refDecCap reduces edge capacity by one, removing the edge at zero.
func refDecCap(g *graph.Directed, from, to graph.NodeID) {
	c := g.Cap(from, to)
	g.RemoveEdge(from, to)
	if c > 1 {
		g.MustAddEdge(from, to, c-1)
	}
}

func refIncCap(g *graph.Directed, from, to graph.NodeID) {
	c := g.Cap(from, to)
	g.RemoveEdge(from, to)
	g.MustAddEdge(from, to, c+1)
}

func refExtractArborescence(work *graph.Directed, root graph.NodeID, t int) (*Arborescence, error) {
	nodes := work.Nodes()
	parent := map[graph.NodeID]graph.NodeID{}
	inTree := map[graph.NodeID]bool{root: true}
	var grow func() bool
	grow = func() bool {
		if len(inTree) == len(nodes) {
			return true
		}
		for _, e := range refCandidateEdges(work, inTree) {
			if !refSafeEdge(work, root, t, e) {
				continue
			}
			parent[e.To] = e.From
			inTree[e.To] = true
			refDecCap(work, e.From, e.To)
			if grow() {
				return true
			}
			delete(parent, e.To)
			delete(inTree, e.To)
			refIncCap(work, e.From, e.To)
		}
		return false
	}
	if !grow() {
		return nil, fmt.Errorf("spantree: no safe edge sequence found (t=%d)", t)
	}
	return &Arborescence{Root: root, Parent: parent}, nil
}

func refCandidateEdges(work *graph.Directed, inTree map[graph.NodeID]bool) []graph.Edge {
	var out []graph.Edge
	for _, e := range work.Edges() {
		if inTree[e.From] && !inTree[e.To] {
			out = append(out, e)
		}
	}
	return out
}

func refSafeEdge(work *graph.Directed, root graph.NodeID, t int, e graph.Edge) bool {
	refDecCap(work, e.From, e.To)
	defer refIncCap(work, e.From, e.To)
	need := int64(t - 1)
	if need == 0 {
		return true
	}
	for _, v := range work.Nodes() {
		if v == root {
			continue
		}
		mc, err := work.MaxFlow(root, v)
		if err != nil || mc < need {
			return false
		}
	}
	return true
}

// packCase is one graph the packers are compared on.
type packCase struct {
	name string
	g    *graph.Directed
}

// referenceCases returns E4's six networks and 24 seeded random networks
// of connectivity 2f+1 for f = 1 and 2 with n <= 8.
func referenceCases(t *testing.T) []packCase {
	t.Helper()
	must := func(g *graph.Directed, err error) *graph.Directed {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []packCase{
		{"K4 unit", topo.CompleteBi(4, 1)},
		{"K5 cap2", topo.CompleteBi(5, 2)},
		{"K7 cap2", topo.CompleteBi(7, 2)},
		{"random n=6", must(topo.RandomConnected(rand.New(rand.NewSource(1)), 6, 3, 4))},
		{"one-thin-link n=5", must(topo.OneThinLink(5, 4, 5, 8, 1))},
		{"circulant C8(1,2)", must(topo.Circulant(8, 2, 1, 2))},
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := 1 + int(seed%2)
		n := 5 + rng.Intn(4) // f = 1: 5..8
		if f == 2 {
			n = 7 + rng.Intn(2) // connectivity 5 needs n >= 7
		}
		maxCap := 1 + rng.Int63n(3)
		g := must(topo.RandomConnected(rng, n, 2*f+1, maxCap))
		cases = append(cases, packCase{fmt.Sprintf("seed %d f=%d n=%d cap<=%d", seed, f, n, maxCap), g})
	}
	return cases
}

// TestPackArborescencesMatchesReference pins the flow-net packer to the
// map-mutating one it replaced: for every feasible k the two return the
// same trees, and for k = gamma+1 both refuse.
func TestPackArborescencesMatchesReference(t *testing.T) {
	for _, tc := range referenceCases(t) {
		gamma, err := tc.g.BroadcastMincut(1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for k := 1; k <= int(gamma); k++ {
			want, err := refPackArborescences(tc.g, 1, k)
			if err != nil {
				t.Fatalf("%s k=%d: reference: %v", tc.name, k, err)
			}
			got, err := PackArborescences(tc.g, 1, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: trees differ from the reference\ngot  %v\nwant %v", tc.name, k, treeEdges(got), treeEdges(want))
			}
		}
		if _, err := PackArborescences(tc.g, 1, int(gamma)+1); err == nil {
			t.Fatalf("%s: k = gamma+1 = %d packed", tc.name, gamma+1)
		}
	}
}

func treeEdges(trees []*Arborescence) [][]graph.Edge {
	out := make([][]graph.Edge, len(trees))
	for i, tr := range trees {
		out[i] = tr.Edges()
	}
	return out
}

// TestPackArborescencesLeavesGraph checks the packer never writes to its
// input graph.
func TestPackArborescencesLeavesGraph(t *testing.T) {
	g := topo.CompleteBi(5, 2)
	before := g.Clone()
	if _, err := PackArborescences(g, 1, 8); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(before) {
		t.Fatalf("input graph changed: %v, was %v", g, before)
	}
}
