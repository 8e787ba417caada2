package graph

import (
	"fmt"
	"math"
)

// NodeDisjointPathsPerPair is the construction PathNet replaced, kept as
// its reference: a fresh split-node flow net for the one pair (s, t). A
// PathNet reset for the pair must return exactly its paths.
func NodeDisjointPathsPerPair(g *Directed, s, t NodeID, want int) ([][]NodeID, error) {
	if !g.HasNode(s) || !g.HasNode(t) {
		return nil, fmt.Errorf("graph: path endpoints %d,%d not both present", s, t)
	}
	if s == t {
		return nil, fmt.Errorf("graph: path source equals sink (%d)", s)
	}
	if want <= 0 {
		return nil, fmt.Errorf("graph: want %d paths, must be positive", want)
	}

	// Split every node v into v_in -> v_out with capacity 1, except s and t
	// which get infinite internal capacity. Each original edge (u,v) becomes
	// u_out -> v_in with capacity 1 (a path uses an edge at most once).
	nodes := g.Nodes()
	ix := newIndexer(nodes)
	n := len(nodes)
	inOf := func(i int) int { return 2 * i }
	outOf := func(i int) int { return 2*i + 1 }
	fn := newFlowNet(2*n, n+g.NumEdges())
	const inf = int64(math.MaxInt32)
	for i, v := range nodes {
		c := int64(1)
		if v == s || v == t {
			c = inf
		}
		fn.addArc(inOf(i), outOf(i), c)
	}
	type arcEdge struct {
		arc  int
		from NodeID
		to   NodeID
	}
	arcs := make([]arcEdge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		id := fn.addArc(outOf(ix.idx[e.From]), inOf(ix.idx[e.To]), 1)
		arcs = append(arcs, arcEdge{arc: id, from: e.From, to: e.To})
	}
	// Limit total flow to want paths via a super-source arc.
	// Simpler: run full maxflow and trim.
	val := fn.maxflow(outOf(ix.idx[s]), inOf(ix.idx[t]))
	if val == 0 {
		return nil, nil
	}

	// Collect used edges and decompose into paths by walking from s.
	usedOut := map[NodeID][]NodeID{}
	for _, ae := range arcs {
		if fn.cap[ae.arc] == 0 { // saturated unit arc => used
			usedOut[ae.from] = append(usedOut[ae.from], ae.to)
		}
	}
	paths := make([][]NodeID, 0, val)
	for p := int64(0); p < val && len(paths) < want; p++ {
		path := []NodeID{s}
		cur := s
		for cur != t {
			outs := usedOut[cur]
			if len(outs) == 0 {
				return nil, fmt.Errorf("graph: internal error decomposing flow at node %d", cur)
			}
			next := outs[len(outs)-1]
			usedOut[cur] = outs[:len(outs)-1]
			path = append(path, next)
			cur = next
			if len(path) > g.NumNodes()+1 {
				return nil, fmt.Errorf("graph: internal error: path exceeds node count (cycle in flow)")
			}
		}
		paths = append(paths, path)
	}
	return paths, nil
}
