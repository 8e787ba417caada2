package graph

import (
	"fmt"
	"math"
)

// NodeDisjointPaths returns up to want internally-node-disjoint directed
// paths from s to t (each path a node sequence starting at s and ending at
// t). It uses unit-capacity node splitting so no two returned paths share an
// intermediate node; the direct edge s->t, if present, yields the
// single-hop path. Fewer than want paths are returned when the graph cannot
// support them; callers check len(result).
//
// This is the substrate for the paper's complete-graph emulation: with
// connectivity >= 2f+1 and at most f faults, sending a message along 2f+1
// node-disjoint paths and taking the majority at the receiver implements
// reliable end-to-end communication between fault-free nodes.
func (g *Directed) NodeDisjointPaths(s, t NodeID, want int) ([][]NodeID, error) {
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

// VertexConnectivityPair returns the maximum number of internally
// node-disjoint paths from s to t (Menger's theorem).
func (g *Directed) VertexConnectivityPair(s, t NodeID) (int, error) {
	paths, err := g.NodeDisjointPaths(s, t, g.NumNodes()*g.NumNodes()+1)
	if err != nil {
		return 0, err
	}
	return len(paths), nil
}

// VertexConnectivity returns the minimum over all ordered vertex pairs of
// the internally node-disjoint path count. The paper requires this to be at
// least 2f+1 for Byzantine broadcast to exist.
func (g *Directed) VertexConnectivity() (int, error) {
	nodes := g.Nodes()
	if len(nodes) < 2 {
		return 0, fmt.Errorf("graph: connectivity needs at least 2 nodes")
	}
	best := math.MaxInt
	for _, s := range nodes {
		for _, t := range nodes {
			if s == t {
				continue
			}
			k, err := g.VertexConnectivityPair(s, t)
			if err != nil {
				return 0, err
			}
			if k < best {
				best = k
			}
		}
	}
	return best, nil
}

// DisjointPathsDecycled detects whether flow decomposition produced any
// cycle remnants; exposed for tests. A correct unit-capacity decomposition
// never needs it, it exists to make failures loud.
func validatePaths(paths [][]NodeID, s, t NodeID) error {
	seen := map[NodeID]int{}
	for pi, p := range paths {
		if len(p) < 2 || p[0] != s || p[len(p)-1] != t {
			return fmt.Errorf("graph: path %d malformed: %v", pi, p)
		}
		for _, v := range p[1 : len(p)-1] {
			if prev, dup := seen[v]; dup {
				return fmt.Errorf("graph: node %d shared by paths %d and %d", v, prev, pi)
			}
			seen[v] = pi
		}
	}
	return nil
}
