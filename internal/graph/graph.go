// Package graph implements capacitated directed graphs and the flow
// algorithms NAB's analysis is built on: Dinic max-flow/min-cut,
// per-source broadcast mincut (gamma), the minimum pairwise mincut of the
// undirected version (U), vertex connectivity and node-disjoint path
// extraction (for the 2f+1 disjoint-path relay substrate).
//
// Graphs follow the paper's model: simple directed graphs with positive
// integer link capacities; the undirected version of a directed graph merges
// antiparallel edges by summing their capacities.
//
// A graph owns the numbering of its nodes and edges: node i is the i-th
// node in ascending order and edge i the i-th edge in (From, To) order
// (Directed.Index, Directed.EdgeIndex). The flow nets here, the simulator's
// link counters and the protocol's plans all index by these positions.
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

// Directed is a simple directed graph with integer edge capacities. Every
// mutator keeps the nodes ascending and the edges in (From, To) order, so
// the positions Index and EdgeIndex return need no lazily built index and
// a graph shared read-only stays safe. The zero value is an empty graph
// ready to use.
type Directed struct {
	nodes []NodeID // ascending
	edges []Edge   // sorted by (From, To)
}

// NewDirected returns an empty directed graph.
func NewDirected() *Directed { return &Directed{} }

// Index returns v's position in Nodes(); ok is false when v is not a
// vertex of g.
func (g *Directed) Index(v NodeID) (i int, ok bool) { return slices.BinarySearch(g.nodes, v) }

// EdgeIndex returns the position of edge (from, to) in Edges(); ok is
// false when g has no such edge.
func (g *Directed) EdgeIndex(from, to NodeID) (i int, ok bool) {
	return slices.BinarySearchFunc(g.edges, Edge{From: from, To: to}, compareEdges)
}

// pos returns the position of vertex v, which must be in g.
func (g *Directed) pos(v NodeID) int {
	i, _ := g.Index(v)
	return i
}

// AddNode inserts a vertex (no-op if present).
func (g *Directed) AddNode(v NodeID) {
	if i, ok := g.Index(v); !ok {
		g.nodes = slices.Insert(g.nodes, i, v)
	}
}

// AddEdge inserts a directed edge with the given capacity, adding endpoints
// as needed. It returns an error for non-positive capacity, self-loops, or
// duplicate edges (the model is a simple graph). Keeping the edges sorted
// makes it O(E), which is nothing at NAB's n <= 10.
func (g *Directed) AddEdge(from, to NodeID, capacity int64) error {
	if capacity <= 0 {
		return fmt.Errorf("graph: edge (%d,%d) capacity %d must be positive", from, to, capacity)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop at node %d", from)
	}
	i, dup := g.EdgeIndex(from, to)
	if dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", from, to)
	}
	g.AddNode(from)
	g.AddNode(to)
	g.edges = slices.Insert(g.edges, i, Edge{From: from, To: to, Cap: capacity})
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
	if i, ok := g.EdgeIndex(from, to); ok {
		g.edges = slices.Delete(g.edges, i, i+1)
	}
}

// RemoveBetween deletes both directed edges between a and b, matching the
// paper's dispute-control edge removal (pairs in dispute lose their links).
func (g *Directed) RemoveBetween(a, b NodeID) {
	g.RemoveEdge(a, b)
	g.RemoveEdge(b, a)
}

// RemoveNode deletes a vertex and all incident edges.
func (g *Directed) RemoveNode(v NodeID) {
	if i, ok := g.Index(v); ok {
		g.nodes = slices.Delete(g.nodes, i, i+1)
		g.edges = slices.DeleteFunc(g.edges, func(e Edge) bool { return e.From == v || e.To == v })
	}
}

// HasNode reports whether v is a vertex of g.
func (g *Directed) HasNode(v NodeID) bool {
	_, ok := g.Index(v)
	return ok
}

// Cap returns the capacity of edge (from,to), or 0 if absent.
func (g *Directed) Cap(from, to NodeID) int64 {
	if i, ok := g.EdgeIndex(from, to); ok {
		return g.edges[i].Cap
	}
	return 0
}

// HasEdge reports whether the directed edge exists.
func (g *Directed) HasEdge(from, to NodeID) bool {
	_, ok := g.EdgeIndex(from, to)
	return ok
}

// NumNodes returns the vertex count.
func (g *Directed) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed edge count.
func (g *Directed) NumEdges() int { return len(g.edges) }

// Nodes returns the vertices in ascending order.
func (g *Directed) Nodes() []NodeID { return append(make([]NodeID, 0, len(g.nodes)), g.nodes...) }

// Edges returns all edges sorted by (From, To).
func (g *Directed) Edges() []Edge { return append(make([]Edge, 0, len(g.edges)), g.edges...) }

// compareEdges orders edges by (From, To).
func compareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// OutEdges returns edges leaving v, sorted by destination.
func (g *Directed) OutEdges(v NodeID) []Edge {
	i, _ := slices.BinarySearchFunc(g.edges, v, func(e Edge, v NodeID) int { return cmp.Compare(e.From, v) })
	j := i
	for j < len(g.edges) && g.edges[j].From == v {
		j++
	}
	return append([]Edge(nil), g.edges[i:j]...)
}

// InEdges returns edges entering v, sorted by origin.
func (g *Directed) InEdges(v NodeID) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if e.To == v {
			out = append(out, e)
		}
	}
	return out
}

// Neighbors returns nodes adjacent to v by an edge in either direction,
// ascending.
func (g *Directed) Neighbors(v NodeID) []NodeID {
	var out []NodeID
	for _, e := range g.edges {
		switch v {
		case e.From:
			out = append(out, e.To)
		case e.To:
			out = append(out, e.From)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Clone returns a deep copy of g.
func (g *Directed) Clone() *Directed {
	return &Directed{nodes: slices.Clone(g.nodes), edges: slices.Clone(g.edges)}
}

// Induced returns the subgraph induced by keep: only vertices in keep and
// edges between them survive.
func (g *Directed) Induced(keep []NodeID) *Directed {
	c := &Directed{}
	for _, v := range g.nodes {
		if slices.Contains(keep, v) {
			c.nodes = append(c.nodes, v)
		}
	}
	for _, e := range g.edges {
		if c.HasNode(e.From) && c.HasNode(e.To) {
			c.edges = append(c.edges, e)
		}
	}
	return c
}

// Equal reports whether g and o have identical vertex and edge sets.
func (g *Directed) Equal(o *Directed) bool {
	return slices.Equal(g.nodes, o.nodes) && slices.Equal(g.edges, o.edges)
}

// TotalCapacity returns the sum of all edge capacities (the "m" of the
// Theorem 1 proof when applied to a subgraph).
func (g *Directed) TotalCapacity() int64 {
	var sum int64
	for _, e := range g.edges {
		sum += e.Cap
	}
	return sum
}

// String renders a deterministic edge-list form "a->b:cap, ...".
func (g *Directed) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Directed{n=%d:", g.NumNodes())
	for _, e := range g.edges {
		fmt.Fprintf(&sb, " %d->%d:%d", e.From, e.To, e.Cap)
	}
	sb.WriteString("}")
	return sb.String()
}
