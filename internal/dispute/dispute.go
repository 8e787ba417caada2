// Package dispute implements the bookkeeping of NAB's Phase 3 (dispute
// control): the accumulated dispute graph, enumeration of "explaining sets"
// (vertex covers of size at most f), the confirmed-faulty computation (the
// intersection of all explaining sets, step DC4), the diminishing-graph
// rule producing G_{k+1}, and the Omega_k family of candidate fault-free
// subgraphs used to parameterize the equality check.
package dispute

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"nab/internal/graph"
)

// Set is an accumulated set of disputes: unordered node pairs, each
// guaranteed by the protocol to contain at least one faulty node. The zero
// value is not usable; construct with NewSet.
type Set struct {
	pairs map[[2]graph.NodeID]struct{}
}

// NewSet returns an empty dispute set.
func NewSet() *Set {
	return &Set{pairs: map[[2]graph.NodeID]struct{}{}}
}

func normPair(a, b graph.NodeID) [2]graph.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]graph.NodeID{a, b}
}

// Add records a dispute between a and b. Self-disputes are rejected.
func (s *Set) Add(a, b graph.NodeID) error {
	if a == b {
		return fmt.Errorf("dispute: node %d cannot dispute itself", a)
	}
	s.pairs[normPair(a, b)] = struct{}{}
	return nil
}

// Has reports whether a and b are in dispute.
func (s *Set) Has(a, b graph.NodeID) bool {
	_, ok := s.pairs[normPair(a, b)]
	return ok
}

// Len returns the number of disputing pairs.
func (s *Set) Len() int { return len(s.pairs) }

// Pairs returns the disputes sorted lexicographically.
func (s *Set) Pairs() [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, len(s.pairs))
	for p := range s.pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := NewSet()
	for p := range s.pairs {
		c.pairs[p] = struct{}{}
	}
	return c
}

// Support returns all nodes appearing in at least one dispute, sorted.
func (s *Set) Support() []graph.NodeID {
	seen := map[graph.NodeID]struct{}{}
	for p := range s.pairs {
		seen[p[0]] = struct{}{}
		seen[p[1]] = struct{}{}
	}
	return slices.Sorted(maps.Keys(seen))
}

// MarkFaulty records that v has been directly identified as faulty (step
// DC3): per the paper, v is deemed in dispute with every neighbour it has
// in g, which forces v into every explaining set when it has more than f
// neighbours (guaranteed by connectivity >= 2f+1).
func (s *Set) MarkFaulty(g *graph.Directed, v graph.NodeID) error {
	for _, w := range g.Neighbors(v) {
		if err := s.Add(v, w); err != nil {
			return err
		}
	}
	return nil
}

// String renders the set deterministically.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteString("Disputes{")
	for i, p := range s.Pairs() {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%d-%d", p[0], p[1])
	}
	sb.WriteString("}")
	return sb.String()
}

// CoverExists reports whether the disputes can be explained by at most
// budget nodes, optionally avoiding one banned node (banned < 0 disables).
// This is exact branch-and-bound vertex cover, exponential only in budget.
func (s *Set) CoverExists(budget int, banned graph.NodeID) bool {
	return coverRec(s.Pairs(), budget, banned)
}

func coverRec(pairs [][2]graph.NodeID, budget int, banned graph.NodeID) bool {
	// Find the first uncovered pair.
	if len(pairs) == 0 {
		return true
	}
	if budget == 0 {
		return false
	}
	first := pairs[0]
	for _, pick := range first {
		if pick == banned {
			continue
		}
		var rest [][2]graph.NodeID
		for _, p := range pairs[1:] {
			if p[0] != pick && p[1] != pick {
				rest = append(rest, p)
			}
		}
		if coverRec(rest, budget-1, banned) {
			return true
		}
	}
	return false
}

// ConfirmedFaulty returns the nodes contained in EVERY explaining set of
// size at most f — the paper's DC4 intersection, which is guaranteed to
// consist of faulty nodes. It returns an error if no explaining set of
// size f exists at all, which would mean more than f nodes misbehaved
// (a model violation worth failing loudly on).
func (s *Set) ConfirmedFaulty(f int) ([]graph.NodeID, error) {
	if !s.CoverExists(f, -1) {
		return nil, fmt.Errorf("dispute: no explaining set of size <= %d exists; fault bound violated", f)
	}
	var confirmed []graph.NodeID
	for _, v := range s.Support() {
		if !s.CoverExists(f, v) {
			confirmed = append(confirmed, v)
		}
	}
	return confirmed, nil
}

// Apply computes the diminished graph of the paper's Phase 3: starting from
// base, remove all confirmed-faulty nodes and their edges, then remove both
// directed edges between every disputing pair. It returns the new graph and
// the confirmed-faulty list.
func (s *Set) Apply(base *graph.Directed, f int) (*graph.Directed, []graph.NodeID, error) {
	confirmed, err := s.ConfirmedFaulty(f)
	if err != nil {
		return nil, nil, err
	}
	out := base.Clone()
	for _, v := range confirmed {
		out.RemoveNode(v)
	}
	for _, p := range s.Pairs() {
		out.RemoveBetween(p[0], p[1])
	}
	return out, confirmed, nil
}

// Omega enumerates the paper's Omega_k: every induced subgraph of gk with
// exactly want nodes such that no two of its nodes are in dispute. want is
// n - f with n the ORIGINAL node count (confirmed-faulty removals shrink gk
// but not the subgraph size requirement). The result is ordered
// deterministically.
func Omega(gk *graph.Directed, s *Set, want int) []*graph.Directed {
	nodes := gk.Nodes()
	if want <= 0 || want > len(nodes) {
		return nil
	}
	var out []*graph.Directed
	cur := make([]graph.NodeID, 0, want)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == want {
			out = append(out, gk.Induced(append([]graph.NodeID(nil), cur...)))
			return
		}
		if len(nodes)-start < want-len(cur) {
			return
		}
		for i := start; i < len(nodes); i++ {
			v := nodes[i]
			ok := true
			for _, u := range cur {
				if s.Has(u, v) {
					ok = false
					break
				}
			}
			if ok {
				cur = append(cur, v)
				rec(i + 1)
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec(0)
	return out
}
