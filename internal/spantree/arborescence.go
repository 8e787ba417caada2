// Package spantree packs spanning structures under capacity constraints:
//
//   - PackArborescences implements the constructive form of Edmonds'
//     disjoint-arborescence theorem (via Lovász's proof): in a directed
//     graph where MINCUT(root, v) >= k for every v, it extracts k spanning
//     arborescences whose combined per-edge usage respects capacities.
//     NAB's Phase 1 sends one L/gamma-bit block down each of gamma trees.
//
//   - PackUndirectedTrees implements matroid-union (Roskind–Tarjan style)
//     packing of edge-disjoint undirected spanning trees in the undirected
//     version of a graph, used to build the invertible spanning submatrix
//     M_H in the Theorem 1 soundness argument (a graph with pairwise
//     mincut U packs at least U/2 trees, by Nash-Williams/Tutte).
package spantree

import (
	"fmt"
	"sort"

	"nab/internal/graph"
)

// Arborescence is a spanning out-tree rooted at Root: every non-root vertex
// has exactly one parent and is reachable from Root along tree edges.
type Arborescence struct {
	Root   graph.NodeID
	Parent map[graph.NodeID]graph.NodeID
}

// Edges returns the tree's directed edges (parent -> child), sorted by child.
func (a *Arborescence) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(a.Parent))
	children := make([]graph.NodeID, 0, len(a.Parent))
	for c := range a.Parent {
		children = append(children, c)
	}
	sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
	for _, c := range children {
		out = append(out, graph.Edge{From: a.Parent[c], To: c, Cap: 1})
	}
	return out
}

// Depth returns the number of hops from the root to the deepest leaf.
func (a *Arborescence) Depth() int {
	depth := 0
	for c := range a.Parent {
		d := 0
		for c != a.Root {
			c = a.Parent[c]
			d++
			if d > len(a.Parent)+1 {
				return -1 // cycle; Validate will report it
			}
		}
		if d > depth {
			depth = d
		}
	}
	return depth
}

// PathFromRoot returns the vertex sequence root..v along tree edges.
func (a *Arborescence) PathFromRoot(v graph.NodeID) ([]graph.NodeID, error) {
	var rev []graph.NodeID
	cur := v
	for cur != a.Root {
		rev = append(rev, cur)
		p, ok := a.Parent[cur]
		if !ok {
			return nil, fmt.Errorf("spantree: vertex %d not in arborescence", cur)
		}
		cur = p
		if len(rev) > len(a.Parent)+1 {
			return nil, fmt.Errorf("spantree: cycle reaching %d", v)
		}
	}
	out := make([]graph.NodeID, 0, len(rev)+1)
	out = append(out, a.Root)
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out, nil
}

// Validate checks that a spans exactly the nodes of g, uses only edges of g,
// and contains no cycles.
func (a *Arborescence) Validate(g *graph.Directed) error {
	if !g.HasNode(a.Root) {
		return fmt.Errorf("spantree: root %d not in graph", a.Root)
	}
	if len(a.Parent) != g.NumNodes()-1 {
		return fmt.Errorf("spantree: tree has %d edges, want %d", len(a.Parent), g.NumNodes()-1)
	}
	for c, p := range a.Parent {
		if !g.HasEdge(p, c) {
			return fmt.Errorf("spantree: tree edge (%d,%d) not in graph", p, c)
		}
	}
	for _, v := range g.Nodes() {
		if v == a.Root {
			continue
		}
		if _, err := a.PathFromRoot(v); err != nil {
			return err
		}
	}
	return nil
}

// PackArborescences returns k spanning arborescences of g rooted at root
// such that the number of trees using each directed edge never exceeds its
// capacity. It returns an error if MINCUT(g, root, v) < k for some v
// (Edmonds' condition) or if extraction fails unexpectedly.
//
// The trees are grown on one flow net of g: taking an edge into a tree,
// probing it and backtracking change that edge's capacity in the net, and
// g itself is never modified.
func PackArborescences(g *graph.Directed, root graph.NodeID, k int) ([]*Arborescence, error) {
	if k <= 0 {
		return nil, fmt.Errorf("spantree: k = %d must be positive", k)
	}
	if !g.HasNode(root) {
		return nil, fmt.Errorf("spantree: root %d not in graph", root)
	}
	work := graph.NewNet(g)
	if gamma := work.MinFlowFrom(root, 0); gamma < int64(k) {
		return nil, fmt.Errorf("spantree: broadcast mincut from root %d is %d < k = %d", root, gamma, k)
	}

	trees := make([]*Arborescence, 0, k)
	for t := k; t >= 1; t-- {
		// extractArborescence consumes one capacity unit per tree edge from
		// work as it grows, so no further bookkeeping is needed here.
		tree, err := extractArborescence(work, root, t)
		if err != nil {
			return nil, fmt.Errorf("spantree: extracting tree %d: %w", k-t+1, err)
		}
		trees = append(trees, tree)
	}
	return trees, nil
}

// extractArborescence grows one spanning arborescence in work (a net
// whose every vertex has mincut >= t from root) such that after removing
// the tree's edges every vertex retains mincut >= t-1. Candidate edges are
// accepted under the strong Lovász safety condition; if no candidate
// passes, the search backtracks (existence is guaranteed by Edmonds'
// theorem, so backtracking is insurance against pathological tie-breaks).
func extractArborescence(work *graph.Net, root graph.NodeID, t int) (*Arborescence, error) {
	nodes, edges := work.Nodes(), work.Edges()
	parent := map[graph.NodeID]graph.NodeID{}
	inTree := map[graph.NodeID]bool{root: true}

	var grow func() bool
	grow = func() bool {
		if len(inTree) == len(nodes) {
			return true
		}
		for _, i := range candidateEdges(edges, inTree) {
			if !safeEdge(work, root, t, i) {
				continue
			}
			e := edges[i]
			parent[e.To] = e.From
			inTree[e.To] = true
			work.AddCap(i, -1)
			if grow() {
				return true
			}
			// backtrack
			delete(parent, e.To)
			delete(inTree, e.To)
			work.AddCap(i, 1)
		}
		return false
	}
	if !grow() {
		return nil, fmt.Errorf("spantree: no safe edge sequence found (t=%d)", t)
	}
	return &Arborescence{Root: root, Parent: parent}, nil
}

// candidateEdges returns the indices of the edges with capacity left from
// inside the partial tree to outside, in (From, To) order.
func candidateEdges(edges []graph.Edge, inTree map[graph.NodeID]bool) []int {
	var out []int
	for i, e := range edges {
		if e.Cap > 0 && inTree[e.From] && !inTree[e.To] {
			out = append(out, i)
		}
	}
	return out
}

// safeEdge reports whether consuming one unit of work's edge i keeps
// MINCUT(root, v) >= t-1 for every vertex v outside the grown tree and
// every vertex already inside it (the strong invariant guaranteeing the
// remaining graph supports the other t-1 trees).
func safeEdge(work *graph.Net, root graph.NodeID, t int, i int) bool {
	need := int64(t - 1)
	if need == 0 {
		return true
	}
	work.AddCap(i, -1)
	defer work.AddCap(i, 1)
	return work.MinFlowFrom(root, need) >= need
}
