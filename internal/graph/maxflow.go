package graph

import (
	"fmt"
	"math"
	"slices"
)

// flowNet is a Dinic max-flow solver over an arbitrary arc list. It is
// built fresh per query, except that MinPairwiseMincut restores the
// residual capacities between its flows; graphs at NAB scale are small so
// clarity wins.
type flowNet struct {
	n     int
	to    []int   // arc head
	cap   []int64 // residual capacity (arcs stored in pairs: i, i^1 reverse)
	head  [][]int // adjacency: node -> arc indices
	level []int
	iter  []int
}

// newFlowNet returns an empty net of n nodes with room for the given
// number of arcs (each stored with its reverse), so building it does not
// regrow the arc arrays: relay.NewTable builds one per ordered node pair
// on every Open.
func newFlowNet(n, arcs int) *flowNet {
	return &flowNet{n: n, to: make([]int, 0, 2*arcs), cap: make([]int64, 0, 2*arcs), head: make([][]int, n), level: make([]int, n), iter: make([]int, n)}
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
	queue := make([]int, 0, fn.n)
	fn.level[s] = 0
	queue = append(queue, s)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range fn.head[v] {
			if fn.cap[id] > 0 && fn.level[fn.to[id]] < 0 {
				fn.level[fn.to[id]] = fn.level[v] + 1
				queue = append(queue, fn.to[id])
			}
		}
	}
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
		pushed := fn.dfs(w, t, minI64(limit, fn.cap[id]))
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

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// indexer maps NodeIDs to dense ints.
type indexer struct {
	ids []NodeID
	idx map[NodeID]int
}

func newIndexer(nodes []NodeID) *indexer {
	ix := &indexer{ids: nodes, idx: make(map[NodeID]int, len(nodes))}
	for i, v := range nodes {
		ix.idx[v] = i
	}
	return ix
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
	ix := newIndexer(g.Nodes())
	fn := newFlowNet(len(ix.ids), g.NumEdges())
	for _, e := range g.Edges() {
		fn.addArc(ix.idx[e.From], ix.idx[e.To], e.Cap)
	}
	return fn.maxflow(ix.idx[s], ix.idx[t]), nil
}

// MinCut is an alias for MaxFlow, named for readability at call sites that
// reason about cuts (MINCUT(G, s, t) in the paper).
func (g *Directed) MinCut(s, t NodeID) (int64, error) { return g.MaxFlow(s, t) }

// BroadcastMincut returns gamma = min over all other nodes j of
// MINCUT(g, src, j): the highest rate at which src can (unreliably)
// broadcast to every node, by Edmonds' theorem. An error is returned if any
// node is unreachable (mincut 0) so callers never divide by zero silently.
func (g *Directed) BroadcastMincut(src NodeID) (int64, error) {
	if !g.HasNode(src) {
		return 0, fmt.Errorf("graph: source %d not in graph", src)
	}
	best := int64(math.MaxInt64)
	for _, v := range g.Nodes() {
		if v == src {
			continue
		}
		mc, err := g.MaxFlow(src, v)
		if err != nil {
			return 0, err
		}
		if mc < best {
			best = mc
		}
	}
	if g.NumNodes() < 2 {
		return 0, fmt.Errorf("graph: broadcast mincut needs at least 2 nodes")
	}
	if best == 0 {
		return 0, fmt.Errorf("graph: some node unreachable from %d", src)
	}
	return best, nil
}

// MinPairwiseMincut returns U_H of the paper for H = g: the minimum over
// vertex pairs {i,j} of MINCUT(i,j) in g's undirected version, whose edge
// (i,j) has capacity z(i,j)+z(j,i). The flow net carries each undirected
// edge as two antiparallel arcs of the summed capacity, in sorted edge
// order. Returns an error when g is disconnected or has fewer than two
// nodes.
func (g *Directed) MinPairwiseMincut() (int64, error) {
	nodes := g.Nodes()
	if len(nodes) < 2 {
		return 0, fmt.Errorf("graph: pairwise mincut needs at least 2 nodes")
	}
	var und []Edge
	for _, e := range g.Edges() {
		switch {
		case e.From < e.To:
			und = append(und, Edge{From: e.From, To: e.To, Cap: e.Cap + g.Cap(e.To, e.From)})
		case !g.HasEdge(e.To, e.From):
			und = append(und, Edge{From: e.To, To: e.From, Cap: e.Cap})
		}
	}
	slices.SortFunc(und, compareEdges)
	ix := newIndexer(nodes)
	fn := newFlowNet(len(nodes), 2*len(und))
	for _, e := range und {
		fn.addArc(ix.idx[e.From], ix.idx[e.To], e.Cap)
		fn.addArc(ix.idx[e.To], ix.idx[e.From], e.Cap)
	}
	full := slices.Clone(fn.cap)
	// The global minimum cut separates nodes[0] from some vertex, so the
	// n-1 flows from nodes[0] find it.
	best := int64(math.MaxInt64)
	for v := 1; v < len(nodes); v++ {
		copy(fn.cap, full)
		best = min(best, fn.maxflow(0, v))
	}
	if best == 0 {
		return 0, fmt.Errorf("graph: graph is disconnected")
	}
	return best, nil
}

// SortedNodeSet converts a node set to a sorted slice, for deterministic
// iteration in algorithms and tests.
func SortedNodeSet(set map[NodeID]struct{}) []NodeID {
	out := make([]NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
