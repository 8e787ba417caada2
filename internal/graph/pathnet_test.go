package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nab/internal/graph"
	"nab/internal/topo"
)

// pathNetCases are E4's six networks (the random one drawn with nabexp's
// default seed) plus 24 seeded random networks of 5 to 10 nodes.
func pathNetCases(t *testing.T) map[string]*graph.Directed {
	t.Helper()
	must := func(g *graph.Directed, err error) *graph.Directed {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := map[string]*graph.Directed{
		"K4 unit":           topo.CompleteBi(4, 1),
		"K5 cap2":           topo.CompleteBi(5, 2),
		"K7 cap2":           topo.CompleteBi(7, 2),
		"random n=6":        must(topo.RandomConnected(rand.New(rand.NewSource(2012)), 6, 3, 4)),
		"one-thin-link n=5": must(topo.OneThinLink(5, 4, 5, 8, 1)),
		"circulant C8(1,2)": must(topo.Circulant(8, 2, 1, 2)),
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		cases[fmt.Sprintf("random seed %d", seed)] = must(topo.RandomConnected(rng, n, 1+rng.Intn(3), 5))
	}
	return cases
}

// TestPathNetMatchesPerPairNets: one PathNet reset for every ordered pair
// returns exactly the paths of a net built afresh for that pair — same
// paths, same order — for a relay table's 2f+1 and for the full count.
func TestPathNetMatchesPerPairNets(t *testing.T) {
	for name, g := range pathNetCases(t) {
		pn := graph.NewPathNet(g)
		nodes := g.Nodes()
		for _, want := range []int{3, len(nodes) * len(nodes)} {
			for _, s := range nodes {
				for _, d := range nodes {
					if s == d {
						continue
					}
					got, err := pn.Paths(s, d, want)
					if err != nil {
						t.Fatalf("%s: PathNet %d->%d: %v", name, s, d, err)
					}
					ref, err := graph.NodeDisjointPathsPerPair(g, s, d, want)
					if err != nil {
						t.Fatalf("%s: reference %d->%d: %v", name, s, d, err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s: %d->%d (want %d): PathNet %v, per-pair net %v", name, s, d, want, got, ref)
					}
				}
			}
		}
	}
}
