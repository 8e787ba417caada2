// Package graph implements capacitated directed and undirected graphs and
// the flow algorithms NAB's analysis is built on: Dinic max-flow/min-cut,
// per-source broadcast mincut (gamma), all-pairs undirected mincut (U),
// vertex connectivity and node-disjoint path extraction (for the 2f+1
// disjoint-path relay substrate).
//
// Graphs follow the paper's model: simple directed graphs with positive
// integer link capacities; the undirected version of a directed graph merges
// antiparallel edges by summing their capacities.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a vertex. The paper numbers nodes 1..n with node 1 the
// broadcast source, but any distinct ints work.
type NodeID int

// Edge is a directed capacitated link.
type Edge struct {
	From NodeID
	To   NodeID
	Cap  int64
}

// Directed is a simple directed graph with integer edge capacities.
// The zero value is an empty graph ready to use.
type Directed struct {
	nodes map[NodeID]struct{}
	caps  map[[2]NodeID]int64
}

// NewDirected returns an empty directed graph.
func NewDirected() *Directed {
	return &Directed{nodes: map[NodeID]struct{}{}, caps: map[[2]NodeID]int64{}}
}

func (g *Directed) ensure() {
	if g.nodes == nil {
		g.nodes = map[NodeID]struct{}{}
	}
	if g.caps == nil {
		g.caps = map[[2]NodeID]int64{}
	}
}

// AddNode inserts a vertex (no-op if present).
func (g *Directed) AddNode(v NodeID) {
	g.ensure()
	g.nodes[v] = struct{}{}
}

// AddEdge inserts a directed edge with the given capacity, adding endpoints
// as needed. It returns an error for non-positive capacity, self-loops, or
// duplicate edges (the model is a simple graph).
func (g *Directed) AddEdge(from, to NodeID, capacity int64) error {
	g.ensure()
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

// MustAddEdge is AddEdge, panicking on error; for literal topologies in
// tests and examples.
func (g *Directed) MustAddEdge(from, to NodeID, capacity int64) {
	if err := g.AddEdge(from, to, capacity); err != nil {
		panic(err)
	}
}

// AddBiEdge adds edges in both directions with the same capacity.
func (g *Directed) AddBiEdge(a, b NodeID, capacity int64) error {
	if err := g.AddEdge(a, b, capacity); err != nil {
		return err
	}
	return g.AddEdge(b, a, capacity)
}

// RemoveEdge deletes the directed edge (from, to) if present.
func (g *Directed) RemoveEdge(from, to NodeID) {
	delete(g.caps, [2]NodeID{from, to})
}

// RemoveBetween deletes both directed edges between a and b, matching the
// paper's dispute-control edge removal (pairs in dispute lose their links).
func (g *Directed) RemoveBetween(a, b NodeID) {
	g.RemoveEdge(a, b)
	g.RemoveEdge(b, a)
}

// RemoveNode deletes a vertex and all incident edges.
func (g *Directed) RemoveNode(v NodeID) {
	if g.nodes == nil {
		return
	}
	delete(g.nodes, v)
	for key := range g.caps {
		if key[0] == v || key[1] == v {
			delete(g.caps, key)
		}
	}
}

// HasNode reports whether v is a vertex of g.
func (g *Directed) HasNode(v NodeID) bool {
	_, ok := g.nodes[v]
	return ok
}

// Cap returns the capacity of edge (from,to), or 0 if absent.
func (g *Directed) Cap(from, to NodeID) int64 {
	return g.caps[[2]NodeID{from, to}]
}

// HasEdge reports whether the directed edge exists.
func (g *Directed) HasEdge(from, to NodeID) bool {
	_, ok := g.caps[[2]NodeID{from, to}]
	return ok
}

// NumNodes returns the vertex count.
func (g *Directed) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed edge count.
func (g *Directed) NumEdges() int { return len(g.caps) }

// Nodes returns the vertices in ascending order.
func (g *Directed) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for v := range g.nodes {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Edges returns all edges sorted by (From, To).
func (g *Directed) Edges() []Edge {
	out := make([]Edge, 0, len(g.caps))
	for key, c := range g.caps {
		out = append(out, Edge{From: key[0], To: key[1], Cap: c})
	}
	slices.SortFunc(out, compareEdges)
	return out
}

// compareEdges orders edges by (From, To).
func compareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// OutEdges returns edges leaving v, sorted by destination.
func (g *Directed) OutEdges(v NodeID) []Edge {
	var out []Edge
	for key, c := range g.caps {
		if key[0] == v {
			out = append(out, Edge{From: v, To: key[1], Cap: c})
		}
	}
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
	return out
}

// InEdges returns edges entering v, sorted by origin.
func (g *Directed) InEdges(v NodeID) []Edge {
	var out []Edge
	for key, c := range g.caps {
		if key[1] == v {
			out = append(out, Edge{From: key[0], To: v, Cap: c})
		}
	}
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.From, b.From) })
	return out
}

// Neighbors returns nodes adjacent to v by an edge in either direction.
func (g *Directed) Neighbors(v NodeID) []NodeID {
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

// Clone returns a deep copy of g.
func (g *Directed) Clone() *Directed {
	c := NewDirected()
	for v := range g.nodes {
		c.nodes[v] = struct{}{}
	}
	for k, v := range g.caps {
		c.caps[k] = v
	}
	return c
}

// Induced returns the subgraph induced by keep: only vertices in keep and
// edges between them survive.
func (g *Directed) Induced(keep []NodeID) *Directed {
	in := map[NodeID]struct{}{}
	for _, v := range keep {
		if g.HasNode(v) {
			in[v] = struct{}{}
		}
	}
	c := NewDirected()
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

// Equal reports whether g and o have identical vertex and edge sets.
func (g *Directed) Equal(o *Directed) bool {
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

// TotalCapacity returns the sum of all edge capacities (the "m" of the
// Theorem 1 proof when applied to a subgraph).
func (g *Directed) TotalCapacity() int64 {
	var sum int64
	for _, c := range g.caps {
		sum += c
	}
	return sum
}

// Undirected converts g per the paper's definition: undirected edge (i,j)
// exists iff either directed edge exists, with capacity equal to the sum of
// the two directed capacities.
func (g *Directed) Undirected() *Undirected {
	u := NewUndirected()
	for v := range g.nodes {
		u.AddNode(v)
	}
	for key, c := range g.caps {
		u.addCap(key[0], key[1], c)
	}
	return u
}

// String renders a deterministic edge-list form "a->b:cap, ...".
func (g *Directed) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Directed{n=%d:", g.NumNodes())
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, " %d->%d:%d", e.From, e.To, e.Cap)
	}
	sb.WriteString("}")
	return sb.String()
}

// Undirected is a simple undirected graph with integer edge capacities.
type Undirected struct {
	nodes map[NodeID]struct{}
	caps  map[[2]NodeID]int64 // key normalized: smaller id first
}

// NewUndirected returns an empty undirected graph.
func NewUndirected() *Undirected {
	return &Undirected{nodes: map[NodeID]struct{}{}, caps: map[[2]NodeID]int64{}}
}

func ukey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// AddNode inserts a vertex.
func (u *Undirected) AddNode(v NodeID) {
	u.nodes[v] = struct{}{}
}

// AddEdge inserts an undirected edge with the given capacity.
func (u *Undirected) AddEdge(a, b NodeID, capacity int64) error {
	if capacity <= 0 {
		return fmt.Errorf("graph: undirected edge (%d,%d) capacity %d must be positive", a, b, capacity)
	}
	if a == b {
		return fmt.Errorf("graph: self-loop at node %d", a)
	}
	if _, dup := u.caps[ukey(a, b)]; dup {
		return fmt.Errorf("graph: duplicate undirected edge (%d,%d)", a, b)
	}
	u.addCap(a, b, capacity)
	return nil
}

func (u *Undirected) addCap(a, b NodeID, capacity int64) {
	u.nodes[a] = struct{}{}
	u.nodes[b] = struct{}{}
	u.caps[ukey(a, b)] += capacity
}

// Cap returns the capacity between a and b (0 if no edge).
func (u *Undirected) Cap(a, b NodeID) int64 { return u.caps[ukey(a, b)] }

// HasEdge reports whether an edge joins a and b.
func (u *Undirected) HasEdge(a, b NodeID) bool {
	_, ok := u.caps[ukey(a, b)]
	return ok
}

// HasNode reports whether v is a vertex.
func (u *Undirected) HasNode(v NodeID) bool {
	_, ok := u.nodes[v]
	return ok
}

// NumNodes returns the vertex count.
func (u *Undirected) NumNodes() int { return len(u.nodes) }

// NumEdges returns the edge count.
func (u *Undirected) NumEdges() int { return len(u.caps) }

// Nodes returns vertices in ascending order.
func (u *Undirected) Nodes() []NodeID {
	out := make([]NodeID, 0, len(u.nodes))
	for v := range u.nodes {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Edges returns edges as (smaller, larger, cap) triples sorted
// lexicographically.
func (u *Undirected) Edges() []Edge {
	out := make([]Edge, 0, len(u.caps))
	for key, c := range u.caps {
		out = append(out, Edge{From: key[0], To: key[1], Cap: c})
	}
	slices.SortFunc(out, compareEdges)
	return out
}

// Neighbors returns the adjacent vertices of v in ascending order.
func (u *Undirected) Neighbors(v NodeID) []NodeID {
	var out []NodeID
	for key := range u.caps {
		switch v {
		case key[0]:
			out = append(out, key[1])
		case key[1]:
			out = append(out, key[0])
		}
	}
	slices.Sort(out)
	return out
}

// Clone returns a deep copy.
func (u *Undirected) Clone() *Undirected {
	c := NewUndirected()
	for v := range u.nodes {
		c.nodes[v] = struct{}{}
	}
	for k, v := range u.caps {
		c.caps[k] = v
	}
	return c
}

// Induced returns the subgraph induced by keep.
func (u *Undirected) Induced(keep []NodeID) *Undirected {
	in := map[NodeID]struct{}{}
	for _, v := range keep {
		if u.HasNode(v) {
			in[v] = struct{}{}
		}
	}
	c := NewUndirected()
	for v := range in {
		c.nodes[v] = struct{}{}
	}
	for key, cp := range u.caps {
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

// String renders a deterministic form.
func (u *Undirected) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Undirected{n=%d:", u.NumNodes())
	for _, e := range u.Edges() {
		fmt.Fprintf(&sb, " %d-%d:%d", e.From, e.To, e.Cap)
	}
	sb.WriteString("}")
	return sb.String()
}
