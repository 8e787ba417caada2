package graph

import (
	"fmt"
	"math"
	"slices"
)

// flowNet is a Dinic max-flow solver over an arbitrary arc list. A query
// that runs several flows on one graph (Net, PathNet, MinPairwiseMincut)
// builds it once and restores the residual capacities between its flows.
type flowNet struct {
	n     int
	to    []int   // arc head
	cap   []int64 // residual capacity (arcs stored in pairs: i, i^1 reverse)
	head  [][]int // adjacency: node -> arc indices
	level []int
	iter  []int
	queue []int // bfs's queue, reused by every phase
}

// newFlowNet returns an empty net of n nodes with room for the given
// number of arcs (each stored with its reverse), so building it does not
// regrow the arc arrays.
func newFlowNet(n, arcs int) *flowNet {
	return &flowNet{n: n, to: make([]int, 0, 2*arcs), cap: make([]int64, 0, 2*arcs), head: make([][]int, n), level: make([]int, n), iter: make([]int, n), queue: make([]int, 0, n)}
}

func (fn *flowNet) addArc(from, to int, c int64) int {
	id := len(fn.to)
	fn.to = append(fn.to, to, from)
	fn.cap = append(fn.cap, c, 0)
	fn.head[from] = append(fn.head[from], id)
	fn.head[to] = append(fn.head[to], id+1)
	return id
}

func (fn *flowNet) bfs(s, t int) bool {
	for i := range fn.level {
		fn.level[i] = -1
	}
	fn.level[s] = 0
	queue := append(fn.queue[:0], s)
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, id := range fn.head[v] {
			if fn.cap[id] > 0 && fn.level[fn.to[id]] < 0 {
				fn.level[fn.to[id]] = fn.level[v] + 1
				queue = append(queue, fn.to[id])
			}
		}
	}
	fn.queue = queue
	return fn.level[t] >= 0
}

func (fn *flowNet) dfs(v, t int, limit int64) int64 {
	if v == t {
		return limit
	}
	for ; fn.iter[v] < len(fn.head[v]); fn.iter[v]++ {
		id := fn.head[v][fn.iter[v]]
		w := fn.to[id]
		if fn.cap[id] <= 0 || fn.level[w] != fn.level[v]+1 {
			continue
		}
		pushed := fn.dfs(w, t, min(limit, fn.cap[id]))
		if pushed > 0 {
			fn.cap[id] -= pushed
			fn.cap[id^1] += pushed
			return pushed
		}
	}
	return 0
}

func (fn *flowNet) maxflow(s, t int) int64 {
	var flow int64
	for fn.bfs(s, t) {
		for i := range fn.iter {
			fn.iter[i] = 0
		}
		for {
			pushed := fn.dfs(s, t, math.MaxInt64)
			if pushed == 0 {
				break
			}
			flow += pushed
		}
	}
	return flow
}

// flowNet returns the flow net of g's edges, arc 2i carrying edge i.
func (g *Directed) flowNet() *flowNet {
	fn := newFlowNet(len(g.nodes), len(g.edges))
	for _, e := range g.edges {
		fn.addArc(g.pos(e.From), g.pos(e.To), e.Cap)
	}
	return fn
}

// MaxFlow returns the maximum s-t flow value in g. By the max-flow/min-cut
// theorem this equals MINCUT(g, s, t). An error is returned if either
// endpoint is missing or s == t.
func (g *Directed) MaxFlow(s, t NodeID) (int64, error) {
	if !g.HasNode(s) || !g.HasNode(t) {
		return 0, fmt.Errorf("graph: maxflow endpoints %d,%d not both present", s, t)
	}
	if s == t {
		return 0, fmt.Errorf("graph: maxflow source equals sink (%d)", s)
	}
	return g.flowNet().maxflow(g.pos(s), g.pos(t)), nil
}

// BroadcastMincut returns gamma = min over all other nodes j of
// MINCUT(g, src, j): the highest rate at which src can (unreliably)
// broadcast to every node, by Edmonds' theorem. An error is returned if any
// node is unreachable (mincut 0) so callers never divide by zero silently.
func (g *Directed) BroadcastMincut(src NodeID) (int64, error) {
	if !g.HasNode(src) {
		return 0, fmt.Errorf("graph: source %d not in graph", src)
	}
	if g.NumNodes() < 2 {
		return 0, fmt.Errorf("graph: broadcast mincut needs at least 2 nodes")
	}
	best := NewNet(g).MinFlowFrom(src, 0)
	if best == 0 {
		return 0, fmt.Errorf("graph: some node unreachable from %d", src)
	}
	return best, nil
}

// Net is a flow net over one graph's edges whose capacities change in
// place between flow queries, so a caller probing many capacity variants
// of a graph builds the net once. Nodes and edges are numbered as in the
// graph (Directed.Index, Directed.EdgeIndex); an edge whose capacity drops
// to 0 carries no flow, as if it were removed.
type Net struct {
	nodes []NodeID
	edges []Edge // the graph's edges; Cap is the edge's current capacity
	fn    *flowNet
}

// NewNet returns the flow net of g's nodes and edges.
func NewNet(g *Directed) *Net { return &Net{nodes: g.Nodes(), edges: g.Edges(), fn: g.flowNet()} }

// Nodes returns the net's vertices in ascending order. The slice is the
// net's own; callers must not modify it.
func (nt *Net) Nodes() []NodeID { return nt.nodes }

// Edges returns the net's edges in (From, To) order with their current
// capacities. The slice is the net's own; change capacities with AddCap.
func (nt *Net) Edges() []Edge { return nt.edges }

// AddCap changes edge i's capacity by d.
func (nt *Net) AddCap(i int, d int64) { nt.edges[i].Cap += d }

// MinFlowFrom returns the least max-flow from src to any other node under
// the current capacities: the broadcast mincut. It stops at the first
// node, in ascending order, whose flow is below floor and returns that
// flow, so the result is exact for floor <= 0. With no other node it
// returns math.MaxInt64. src must be a node of the net.
func (nt *Net) MinFlowFrom(src NodeID, floor int64) int64 {
	s, ok := slices.BinarySearch(nt.nodes, src)
	if !ok {
		panic(fmt.Sprintf("graph: flow source %d not in net", src))
	}
	best := int64(math.MaxInt64)
	for t := range nt.nodes {
		if t == s {
			continue
		}
		for i, e := range nt.edges {
			nt.fn.cap[2*i], nt.fn.cap[2*i+1] = e.Cap, 0
		}
		flow := nt.fn.maxflow(s, t)
		best = min(best, flow)
		if flow < floor {
			break
		}
	}
	return best
}

// MinPairwiseMincut returns U_H of the paper for H = g: the minimum over
// vertex pairs {i,j} of MINCUT(i,j) in g's undirected version, whose edge
// (i,j) has capacity z(i,j)+z(j,i). The flow net carries each undirected
// edge as two antiparallel arcs of the summed capacity, in sorted edge
// order. Returns an error when g is disconnected or has fewer than two
// nodes.
func (g *Directed) MinPairwiseMincut() (int64, error) {
	if len(g.nodes) < 2 {
		return 0, fmt.Errorf("graph: pairwise mincut needs at least 2 nodes")
	}
	var und []Edge
	for _, e := range g.edges {
		switch {
		case e.From < e.To:
			und = append(und, Edge{From: e.From, To: e.To, Cap: e.Cap + g.Cap(e.To, e.From)})
		case !g.HasEdge(e.To, e.From):
			und = append(und, Edge{From: e.To, To: e.From, Cap: e.Cap})
		}
	}
	slices.SortFunc(und, compareEdges)
	fn := newFlowNet(len(g.nodes), 2*len(und))
	for _, e := range und {
		u, v := g.pos(e.From), g.pos(e.To)
		fn.addArc(u, v, e.Cap)
		fn.addArc(v, u, e.Cap)
	}
	full := slices.Clone(fn.cap)
	// The global minimum cut separates node 0 from some vertex, so the
	// n-1 flows from node 0 find it.
	best := int64(math.MaxInt64)
	for v := 1; v < len(g.nodes); v++ {
		copy(fn.cap, full)
		best = min(best, fn.maxflow(0, v))
	}
	if best == 0 {
		return 0, fmt.Errorf("graph: graph is disconnected")
	}
	return best, nil
}
