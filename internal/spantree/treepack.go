package spantree

import (
	"fmt"
	"sort"

	"nab/internal/graph"
)

// UnitEdge is one capacity unit of a directed edge, viewed as an undirected
// multigraph edge. Slot distinguishes the units of the same directed edge
// (slot s carries the s-th coded symbol sent on that link in the equality
// check, which is how tree edges map to columns of the C_H matrix).
type UnitEdge struct {
	From graph.NodeID // tail of the backing directed edge
	To   graph.NodeID // head of the backing directed edge
	Slot int          // 0-based unit index within the directed edge
}

// PackUndirectedTrees packs k edge-disjoint spanning trees in the
// undirected version of g, where each directed edge of capacity z
// contributes z undirected unit edges. Trees are edge-disjoint at unit
// granularity, so the same link pair may appear in several trees as long as
// total usage stays within the summed capacity, exactly as in the paper's
// M_H construction.
//
// It returns an error when k trees cannot be packed. By Nash-Williams/Tutte,
// packing always succeeds when k <= U/2 with U the minimum pairwise mincut
// of the undirected version.
func PackUndirectedTrees(g *graph.Directed, k int) ([][]UnitEdge, error) {
	if k <= 0 {
		return nil, fmt.Errorf("spantree: k = %d must be positive", k)
	}
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("spantree: need at least 2 nodes, have %d", n)
	}

	// Expand capacities into unit edges, deterministically ordered.
	var units []UnitEdge
	for _, e := range g.Edges() {
		for s := int64(0); s < e.Cap; s++ {
			units = append(units, UnitEdge{From: e.From, To: e.To, Slot: int(s)})
		}
	}

	mu := newMatroidUnion(n, k)
	for ui := range units {
		a, _ := g.Index(units[ui].From)
		b, _ := g.Index(units[ui].To)
		mu.insert(ui, a, b)
	}
	if got := mu.totalSize(); got < k*(n-1) {
		return nil, fmt.Errorf("spantree: only %d of %d tree edges packable (graph too sparse for %d trees)", got, k*(n-1), k)
	}
	out := make([][]UnitEdge, k)
	for fi := 0; fi < k; fi++ {
		ids := mu.forestEdges(fi)
		tree := make([]UnitEdge, 0, len(ids))
		for _, id := range ids {
			tree = append(tree, units[id])
		}
		sort.Slice(tree, func(i, j int) bool {
			if tree[i].From != tree[j].From {
				return tree[i].From < tree[j].From
			}
			if tree[i].To != tree[j].To {
				return tree[i].To < tree[j].To
			}
			return tree[i].Slot < tree[j].Slot
		})
		out[fi] = tree
	}
	return out, nil
}

// ValidateTreePacking checks that each returned tree is spanning and acyclic
// over g's nodes and that no capacity unit is used twice.
func ValidateTreePacking(g *graph.Directed, trees [][]UnitEdge) error {
	n := g.NumNodes()
	seen := map[UnitEdge]bool{}
	for ti, tree := range trees {
		if len(tree) != n-1 {
			return fmt.Errorf("spantree: tree %d has %d edges, want %d", ti, len(tree), n-1)
		}
		dsu := newDSU(n)
		for _, e := range tree {
			if seen[e] {
				return fmt.Errorf("spantree: unit edge %v reused across trees", e)
			}
			seen[e] = true
			if e.Slot < 0 || int64(e.Slot) >= g.Cap(e.From, e.To) {
				return fmt.Errorf("spantree: unit edge %v exceeds capacity %d", e, g.Cap(e.From, e.To))
			}
			a, _ := g.Index(e.From)
			b, _ := g.Index(e.To)
			if !dsu.union(a, b) {
				return fmt.Errorf("spantree: tree %d has a cycle at %v", ti, e)
			}
		}
	}
	return nil
}

// matroidUnion maintains k edge-disjoint forests over n vertices and
// inserts edges with the classic augmenting exchange search: when an edge
// cannot go directly into any forest, breadth-first search over fundamental
// cycles finds an exchange chain freeing a slot.
type matroidUnion struct {
	n, k   int
	forest []map[int][2]int // forest -> edgeID -> endpoints
	owner  map[int]int      // edgeID -> forest index
	adj    []map[int][]int  // forest -> vertex -> incident edgeIDs
	endsOf map[int][2]int   // edgeID -> endpoints (all inserted edges)
}

func newMatroidUnion(n, k int) *matroidUnion {
	m := &matroidUnion{
		n: n, k: k,
		forest: make([]map[int][2]int, k),
		owner:  map[int]int{},
		adj:    make([]map[int][]int, k),
		endsOf: map[int][2]int{},
	}
	for i := 0; i < k; i++ {
		m.forest[i] = map[int][2]int{}
		m.adj[i] = map[int][]int{}
	}
	return m
}

func (m *matroidUnion) totalSize() int {
	total := 0
	for _, f := range m.forest {
		total += len(f)
	}
	return total
}

func (m *matroidUnion) forestEdges(fi int) []int {
	ids := make([]int, 0, len(m.forest[fi]))
	for id := range m.forest[fi] {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (m *matroidUnion) addToForest(fi, id int, a, b int) {
	m.forest[fi][id] = [2]int{a, b}
	m.owner[id] = fi
	m.adj[fi][a] = append(m.adj[fi][a], id)
	m.adj[fi][b] = append(m.adj[fi][b], id)
}

func (m *matroidUnion) removeFromForest(fi, id int) {
	ends := m.forest[fi][id]
	delete(m.forest[fi], id)
	delete(m.owner, id)
	for _, v := range ends[:] {
		list := m.adj[fi][v]
		for i, x := range list {
			if x == id {
				m.adj[fi][v] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
}

// connected reports whether a and b are connected in forest fi and, if so,
// returns the edgeIDs of the path between them.
func (m *matroidUnion) pathInForest(fi, a, b int) ([]int, bool) {
	if a == b {
		return nil, true
	}
	prevEdge := map[int]int{a: -1}
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range m.adj[fi][v] {
			ends := m.forest[fi][id]
			w := ends[0] + ends[1] - v
			if _, seen := prevEdge[w]; seen {
				continue
			}
			prevEdge[w] = id
			if w == b {
				var path []int
				cur := b
				for cur != a {
					eid := prevEdge[cur]
					path = append(path, eid)
					e := m.forest[fi][eid]
					cur = e[0] + e[1] - cur
				}
				return path, true
			}
			queue = append(queue, w)
		}
	}
	return nil, false
}

// insert tries to add edge id with endpoints (a, b) to the union of forests,
// performing augmenting exchanges as needed. Returns true if inserted.
func (m *matroidUnion) insert(id, a, b int) bool {
	m.endsOf[id] = [2]int{a, b}
	// Fast path: some forest keeps it acyclic.
	for fi := 0; fi < m.k; fi++ {
		if _, conn := m.pathInForest(fi, a, b); !conn {
			m.addToForest(fi, id, a, b)
			return true
		}
	}
	// Augmenting search: BFS over edges. label[x] = (pred edge, forest in
	// whose fundamental cycle x was found).
	labels := map[int]exchangeLabel{id: {pred: -1, forest: -1}}
	queue := []int{id}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		xe := m.endsOf[x]
		for fi := 0; fi < m.k; fi++ {
			if owner, owned := m.owner[x]; owned && owner == fi {
				continue // x already lives in fi; its cycle there is itself
			}
			path, conn := m.pathInForest(fi, xe[0], xe[1])
			if !conn {
				// x fits in fi: perform the exchange chain.
				m.applyExchange(x, fi, labels)
				return true
			}
			for _, ce := range path {
				if _, seen := labels[ce]; seen {
					continue
				}
				labels[ce] = exchangeLabel{pred: x, forest: fi}
				queue = append(queue, ce)
			}
		}
	}
	return false
}

// exchangeLabel records how an edge was reached during the augmenting BFS:
// it lies on pred's fundamental cycle in the given forest.
type exchangeLabel struct {
	pred   int
	forest int
}

// applyExchange moves x into forest fi, then walks the predecessor chain:
// each predecessor replaces the edge it displaced.
func (m *matroidUnion) applyExchange(x, fi int, labels map[int]exchangeLabel) {
	for x != -1 {
		lb := labels[x]
		// Remove x from its current owner (if any) before re-adding.
		if owner, owned := m.owner[x]; owned {
			m.removeFromForest(owner, x)
		}
		ends := m.endsOf[x]
		m.addToForest(fi, x, ends[0], ends[1])
		// The predecessor (if any) will be inserted into the forest that
		// contained x when x was labeled.
		fi = lb.forest
		x = lb.pred
	}
}

// dsu is a plain disjoint-set union used by validation.
type dsu struct{ parent []int }

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// union merges the sets of a and b, returning false if already joined.
func (d *dsu) union(a, b int) bool {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return false
	}
	d.parent[ra] = rb
	return true
}
