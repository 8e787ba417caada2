package graph

import (
	"fmt"
	"math"
	"slices"
)

// flowNet is a Dinic max-flow solver over an arbitrary arc list. It is built
// fresh per query; graphs at NAB scale are small so clarity wins.
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

// MaxFlow returns the maximum flow between a and b treating each undirected
// edge as a pair of antiparallel arcs of the same capacity.
func (u *Undirected) MaxFlow(a, b NodeID) (int64, error) {
	if !u.HasNode(a) || !u.HasNode(b) {
		return 0, fmt.Errorf("graph: maxflow endpoints %d,%d not both present", a, b)
	}
	if a == b {
		return 0, fmt.Errorf("graph: maxflow source equals sink (%d)", a)
	}
	ix := newIndexer(u.Nodes())
	fn := newFlowNet(len(ix.ids), 2*u.NumEdges())
	for _, e := range u.Edges() {
		fn.addArc(ix.idx[e.From], ix.idx[e.To], e.Cap)
		fn.addArc(ix.idx[e.To], ix.idx[e.From], e.Cap)
	}
	return fn.maxflow(ix.idx[a], ix.idx[b]), nil
}

// MinCut is an alias for MaxFlow on undirected graphs.
func (u *Undirected) MinCut(a, b NodeID) (int64, error) { return u.MaxFlow(a, b) }

// MinPairwiseMincut returns min over all vertex pairs {i,j} of
// MINCUT(u, i, j); this is U_H in the paper (via the undirected version of
// each candidate subgraph H). Returns 0 with an error when u is
// disconnected or has fewer than two nodes.
func (u *Undirected) MinPairwiseMincut() (int64, error) {
	nodes := u.Nodes()
	if len(nodes) < 2 {
		return 0, fmt.Errorf("graph: pairwise mincut needs at least 2 nodes")
	}
	best := int64(math.MaxInt64)
	// Global minimum pairwise mincut can be found with n-1 flows against a
	// fixed node: for any i, min_j MINCUT(i,j) over j != i realizes the
	// global min for some pair containing the overall argmin side... To stay
	// exact and simple at NAB scales we check pairs (nodes[0], v) for all v
	// plus all pairs — but the former is enough: the global minimum cut
	// separates nodes[0] from some vertex, so min over v of
	// MINCUT(nodes[0], v) equals the global minimum.
	for _, v := range nodes[1:] {
		mc, err := u.MaxFlow(nodes[0], v)
		if err != nil {
			return 0, err
		}
		if mc < best {
			best = mc
		}
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
