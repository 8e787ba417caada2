package graph

import (
	"slices"
	"testing"
)

// fuzzIDs are the node ids FuzzDirected draws from: arbitrary, as
// NodeIDs are, with negatives and ids far apart.
var fuzzIDs = []NodeID{-7, 0, 1, 2, 3, 4, 5, 9, 1 << 20, 1 << 40}

// FuzzDirected runs a fuzzer-chosen sequence of mutations on a Directed
// and on mapDirected, the map-backed graph it replaced, and checks after
// every operation that each read agrees and that Index and EdgeIndex are
// the positions in Nodes() and Edges(). Each operation takes three bytes:
// the operation, then two operands; past 64 operations the rest is
// ignored, which keeps each input fast.
func FuzzDirected(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 3, 2, 1, 4, 2, 0, 5, 0, 2, 2, 3, 3, 2, 3})
	f.Add([]byte{1, 0, 9, 1, 9, 0, 1, 1, 2, 5, 1, 0, 6, 0x55, 0, 4, 9, 0, 1, 9, 9})
	f.Add([]byte{0, 7, 0, 1, 7, 8, 1, 8, 7, 1, 7, 8, 5, 0, 0, 3, 7, 8, 4, 8, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*64)]
		g, ref := NewDirected(), newMapDirected()
		// The graphs a Clone or Induced replaced: later mutations of the
		// new graph must not reach them.
		prev, prevRef := NewDirected(), newMapDirected()
		for len(ops) >= 3 {
			op, a, b := ops[0]%7, fuzzIDs[int(ops[1])%len(fuzzIDs)], fuzzIDs[int(ops[2])%len(fuzzIDs)]
			switch op {
			case 0:
				g.AddNode(a)
				ref.AddNode(a)
			case 1:
				// Capacities from -1 upward: invalid ones must fail alike.
				c := int64(ops[2]/16) - 1
				err, refErr := g.AddEdge(a, b, c), ref.AddEdge(a, b, c)
				if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
					t.Fatalf("AddEdge(%d, %d, %d) = %v, reference %v", a, b, c, err, refErr)
				}
			case 2:
				g.RemoveEdge(a, b)
				ref.RemoveEdge(a, b)
			case 3:
				g.RemoveBetween(a, b)
				ref.RemoveBetween(a, b)
			case 4:
				g.RemoveNode(a)
				ref.RemoveNode(a)
			case 5:
				prev, prevRef = g, ref
				g, ref = g.Clone(), ref.Clone()
			case 6:
				// The operand bits pick the kept ids.
				var keep []NodeID
				for i, v := range fuzzIDs {
					if (int(ops[1])<<8|int(ops[2]))>>i&1 == 1 {
						keep = append(keep, v)
					}
				}
				prev, prevRef = g, ref
				g, ref = g.Induced(keep), ref.Induced(keep)
			}
			ops = ops[3:]
			checkDirected(t, g, ref)
			checkDirected(t, prev, prevRef)
			if g.Equal(prev) != ref.Equal(prevRef) || prev.Equal(g) != prevRef.Equal(ref) {
				t.Fatalf("Equal(%v, %v) = %v, reference %v", g, prev, g.Equal(prev), ref.Equal(prevRef))
			}
		}
	})
}

// checkDirected fails unless every read of g agrees with ref, then
// scribbles over the slices g returned, which the caller owns.
func checkDirected(t *testing.T, g *Directed, ref *mapDirected) {
	t.Helper()
	nodes, edges := g.Nodes(), g.Edges()
	if !slices.Equal(nodes, ref.Nodes()) || !slices.Equal(edges, ref.Edges()) {
		t.Fatalf("graph %v, reference %v", g, ref)
	}
	if g.NumNodes() != len(nodes) || g.NumEdges() != len(edges) || !g.Equal(g.Clone()) {
		t.Fatalf("%v: %d nodes, %d edges", g, g.NumNodes(), g.NumEdges())
	}
	if g.String() != ref.String() || g.Marshal() != ref.Marshal() {
		t.Fatalf("renders %q / %q, reference %q / %q", g, g.Marshal(), ref, ref.Marshal())
	}
	for _, a := range fuzzIDs {
		if i, ok := g.Index(a); ok != ref.HasNode(a) || ok != g.HasNode(a) || ok && nodes[i] != a {
			t.Fatalf("%v: Index(%d) = %d, %v", g, a, i, ok)
		}
		out, in := g.OutEdges(a), g.InEdges(a)
		if !slices.Equal(out, ref.OutEdges(a)) || !slices.Equal(in, ref.InEdges(a)) ||
			!slices.Equal(g.Neighbors(a), ref.Neighbors(a)) {
			t.Fatalf("%v: node %d's edges differ from the reference's", g, a)
		}
		for i := range out {
			out[i].To = -1
		}
		for i := range in {
			in[i].From = -1
		}
		for _, b := range fuzzIDs {
			i, ok := g.EdgeIndex(a, b)
			if ok != ref.HasEdge(a, b) || ok != g.HasEdge(a, b) || g.Cap(a, b) != ref.Cap(a, b) ||
				ok && (edges[i].From != a || edges[i].To != b) {
				t.Fatalf("%v: EdgeIndex(%d, %d) = %d, %v", g, a, b, i, ok)
			}
		}
	}
	for i := range nodes {
		nodes[i] = -1
	}
	for i := range edges {
		edges[i].Cap = -1
	}
}
