package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeDisjointPaths returns up to want internally-node-disjoint directed
// paths from s to t (each path a node sequence starting at s and ending at
// t). It uses unit-capacity node splitting so no two returned paths share an
// intermediate node; the direct edge s->t, if present, yields the
// single-hop path. Fewer than want paths are returned when the graph cannot
// support them; callers check len(result). A caller that needs many pairs
// builds one PathNet instead.
//
// This is the substrate for the paper's complete-graph emulation: with
// connectivity >= 2f+1 and at most f faults, sending a message along 2f+1
// node-disjoint paths and taking the majority at the receiver implements
// reliable end-to-end communication between fault-free nodes.
func (g *Directed) NodeDisjointPaths(s, t NodeID, want int) ([][]NodeID, error) {
	return NewPathNet(g).Paths(s, t, want)
}

// PathNet is the split-node flow net of NodeDisjointPaths, built once for
// a graph and reset per pair. Every node v is split into v_in -> v_out
// with capacity 1, and every edge (u,v) becomes u_out -> v_in with
// capacity 1 (a path uses an edge at most once). Every ordered pair's net
// has these same arcs; only the pair's own endpoints get infinite internal
// capacity.
type PathNet struct {
	nodes []NodeID // ascending; node i is split into 2i (in) and 2i+1 (out)
	edges [][2]int // edge j's endpoint positions; its arc is 2(len(nodes)+j)
	fn    *flowNet
	full  []int64 // every arc's capacity with no endpoint set
	used  [][]int // per node position: heads of the edges the flow used
}

// NewPathNet builds the split-node net of g.
func NewPathNet(g *Directed) *PathNet {
	n := g.NumNodes()
	pn := &PathNet{nodes: g.Nodes(), fn: newFlowNet(2*n, n+g.NumEdges()), used: make([][]int, n)}
	for i := range n {
		pn.fn.addArc(2*i, 2*i+1, 1)
	}
	for _, e := range g.edges {
		u, v := g.pos(e.From), g.pos(e.To)
		pn.fn.addArc(2*u+1, 2*v, 1)
		pn.edges = append(pn.edges, [2]int{u, v})
	}
	pn.full = slices.Clone(pn.fn.cap)
	return pn
}

// Paths is NodeDisjointPaths(s, t, want) on the net's graph.
func (pn *PathNet) Paths(s, t NodeID, want int) ([][]NodeID, error) {
	si, okS := slices.BinarySearch(pn.nodes, s)
	ti, okT := slices.BinarySearch(pn.nodes, t)
	if !okS || !okT {
		return nil, fmt.Errorf("graph: path endpoints %d,%d not both present", s, t)
	}
	if s == t {
		return nil, fmt.Errorf("graph: path source equals sink (%d)", s)
	}
	if want <= 0 {
		return nil, fmt.Errorf("graph: want %d paths, must be positive", want)
	}
	fn, n := pn.fn, len(pn.nodes)
	copy(fn.cap, pn.full)
	const inf = int64(math.MaxInt32)
	fn.cap[2*si], fn.cap[2*ti] = inf, inf
	val := fn.maxflow(2*si+1, 2*ti)
	if val == 0 {
		return nil, nil
	}

	// Collect used edges and decompose into paths by walking from s.
	for i := range pn.used {
		pn.used[i] = pn.used[i][:0]
	}
	for j, e := range pn.edges {
		if fn.cap[2*(n+j)] == 0 { // saturated unit arc => used
			pn.used[e[0]] = append(pn.used[e[0]], e[1])
		}
	}
	// Every path's nodes go into one array; the paths are windows of it.
	var flat []NodeID
	var ends []int
	for p := int64(0); p < val && len(ends) < want; p++ {
		first := len(flat)
		flat = append(flat, s)
		for cur := si; cur != ti; {
			outs := pn.used[cur]
			if len(outs) == 0 {
				return nil, fmt.Errorf("graph: internal error decomposing flow at node %d", pn.nodes[cur])
			}
			pn.used[cur] = outs[:len(outs)-1]
			cur = outs[len(outs)-1]
			flat = append(flat, pn.nodes[cur])
			if len(flat)-first > n+1 {
				return nil, fmt.Errorf("graph: internal error: path exceeds node count (cycle in flow)")
			}
		}
		ends = append(ends, len(flat))
	}
	paths := make([][]NodeID, len(ends))
	first := 0
	for i, end := range ends {
		paths[i] = flat[first:end:end]
		first = end
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
	pn := NewPathNet(g)
	best := math.MaxInt
	for _, s := range nodes {
		for _, t := range nodes {
			if s == t {
				continue
			}
			paths, err := pn.Paths(s, t, g.NumNodes()*g.NumNodes()+1)
			if err != nil {
				return 0, err
			}
			best = min(best, len(paths))
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
