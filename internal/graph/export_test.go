package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
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
		id := fn.addArc(outOf(g.pos(e.From)), inOf(g.pos(e.To)), 1)
		arcs = append(arcs, arcEdge{arc: id, from: e.From, to: e.To})
	}
	// Limit total flow to want paths via a super-source arc.
	// Simpler: run full maxflow and trim.
	val := fn.maxflow(outOf(g.pos(s)), inOf(g.pos(t)))
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

// mapDirected is the map-backed Directed the sorted-slice one replaced,
// kept as its reference: FuzzDirected runs both through the same
// mutations and wants every read to agree.
type mapDirected struct {
	nodes map[NodeID]struct{}
	caps  map[[2]NodeID]int64
}

func newMapDirected() *mapDirected {
	return &mapDirected{nodes: map[NodeID]struct{}{}, caps: map[[2]NodeID]int64{}}
}

func (g *mapDirected) AddNode(v NodeID) { g.nodes[v] = struct{}{} }

func (g *mapDirected) AddEdge(from, to NodeID, capacity int64) error {
	if capacity <= 0 {
		return fmt.Errorf("graph: edge (%d,%d) capacity %d must be positive", from, to, capacity)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop at node %d", from)
	}
	key := [2]NodeID{from, to}
	if _, dup := g.caps[key]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", from, to)
	}
	g.nodes[from] = struct{}{}
	g.nodes[to] = struct{}{}
	g.caps[key] = capacity
	return nil
}

func (g *mapDirected) RemoveEdge(from, to NodeID) { delete(g.caps, [2]NodeID{from, to}) }

func (g *mapDirected) RemoveBetween(a, b NodeID) {
	g.RemoveEdge(a, b)
	g.RemoveEdge(b, a)
}

func (g *mapDirected) RemoveNode(v NodeID) {
	delete(g.nodes, v)
	for key := range g.caps {
		if key[0] == v || key[1] == v {
			delete(g.caps, key)
		}
	}
}

func (g *mapDirected) HasNode(v NodeID) bool {
	_, ok := g.nodes[v]
	return ok
}

func (g *mapDirected) Cap(from, to NodeID) int64 { return g.caps[[2]NodeID{from, to}] }

func (g *mapDirected) HasEdge(from, to NodeID) bool {
	_, ok := g.caps[[2]NodeID{from, to}]
	return ok
}

func (g *mapDirected) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for v := range g.nodes {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (g *mapDirected) Edges() []Edge {
	out := make([]Edge, 0, len(g.caps))
	for key, c := range g.caps {
		out = append(out, Edge{From: key[0], To: key[1], Cap: c})
	}
	slices.SortFunc(out, compareEdges)
	return out
}

func (g *mapDirected) OutEdges(v NodeID) []Edge {
	var out []Edge
	for key, c := range g.caps {
		if key[0] == v {
			out = append(out, Edge{From: v, To: key[1], Cap: c})
		}
	}
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
	return out
}

func (g *mapDirected) InEdges(v NodeID) []Edge {
	var out []Edge
	for key, c := range g.caps {
		if key[1] == v {
			out = append(out, Edge{From: key[0], To: v, Cap: c})
		}
	}
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.From, b.From) })
	return out
}

func (g *mapDirected) Neighbors(v NodeID) []NodeID {
	seen := map[NodeID]struct{}{}
	for key := range g.caps {
		switch v {
		case key[0]:
			seen[key[1]] = struct{}{}
		case key[1]:
			seen[key[0]] = struct{}{}
		}
	}
	out := make([]NodeID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

func (g *mapDirected) Clone() *mapDirected {
	c := newMapDirected()
	for v := range g.nodes {
		c.nodes[v] = struct{}{}
	}
	for k, v := range g.caps {
		c.caps[k] = v
	}
	return c
}

func (g *mapDirected) Induced(keep []NodeID) *mapDirected {
	in := map[NodeID]struct{}{}
	for _, v := range keep {
		if g.HasNode(v) {
			in[v] = struct{}{}
		}
	}
	c := newMapDirected()
	for v := range in {
		c.nodes[v] = struct{}{}
	}
	for key, cp := range g.caps {
		if _, a := in[key[0]]; !a {
			continue
		}
		if _, b := in[key[1]]; !b {
			continue
		}
		c.caps[key] = cp
	}
	return c
}

func (g *mapDirected) Equal(o *mapDirected) bool {
	if len(g.nodes) != len(o.nodes) || len(g.caps) != len(o.caps) {
		return false
	}
	for v := range g.nodes {
		if !o.HasNode(v) {
			return false
		}
	}
	for k, c := range g.caps {
		if o.caps[k] != c {
			return false
		}
	}
	return true
}

func (g *mapDirected) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Directed{n=%d:", len(g.nodes))
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, " %d->%d:%d", e.From, e.To, e.Cap)
	}
	sb.WriteString("}")
	return sb.String()
}

func (g *mapDirected) Marshal() string {
	var sb strings.Builder
	edgeTouched := map[NodeID]bool{}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d %d\n", e.From, e.To, e.Cap)
		edgeTouched[e.From] = true
		edgeTouched[e.To] = true
	}
	for _, v := range g.Nodes() {
		if !edgeTouched[v] {
			fmt.Fprintf(&sb, "node %d\n", v)
		}
	}
	return sb.String()
}
