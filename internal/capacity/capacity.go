// Package capacity computes the quantities of the paper's throughput
// analysis (Section 5):
//
//	gamma_k  = min_j MINCUT(G_k, source, j)      Phase-1 broadcast rate
//	U_k      = min_{H in Omega_k} min pairwise mincut of undirected H
//	rho_k    = floor(U_k / 2)                    equality-check parameter
//	gamma*   = min over reachable instance graphs of gamma_k
//	rho*     = U_1 / 2
//	C_BB(G) <= min(gamma*, 2 rho*)               Theorem 2 upper bound
//	T_NAB    = gamma* rho* / (gamma* + rho*)     Theorem 3 lower bound
//
// The reachable-graph family Gamma (Appendix E) is exponential in general.
// Disputes in NAB are node pairs, each containing at least one member of
// the true faulty set F, so reachable instance graphs are exactly
// Apply(D, G) over dispute pair-sets D incident on some F with |F| <= f.
// GammaStarExact enumerates that family with a work budget;
// GammaStarFast evaluates the node-deletion subfamily {G - F} only
// (an optimistic estimate, exact on many graphs; the gap is measured in
// tests and documented in EXPERIMENTS.md).
package capacity

import (
	"fmt"
	"sort"
	"strings"

	"nab/internal/dispute"
	"nab/internal/graph"
)

// Gamma returns gamma_k for the instance graph.
func Gamma(gk *graph.Directed, source graph.NodeID) (int64, error) {
	return gk.BroadcastMincut(source)
}

// U returns U_k: the minimum over the Omega_k subgraphs of the pairwise
// mincut of their undirected versions.
func U(omega []*graph.Directed) (int64, error) {
	if len(omega) == 0 {
		return 0, fmt.Errorf("capacity: empty Omega family")
	}
	best := int64(1) << 62
	for i, h := range omega {
		u, err := h.MinPairwiseMincut()
		if err != nil {
			return 0, fmt.Errorf("capacity: Omega subgraph %d: %w", i, err)
		}
		if u < best {
			best = u
		}
	}
	return best, nil
}

// Rho returns rho_k = floor(U_k/2), the paper's optimal equality-check
// parameter. An error is returned when U_k < 2, where the equality check
// cannot be parameterized.
func Rho(omega []*graph.Directed) (int, error) {
	u, err := U(omega)
	if err != nil {
		return 0, err
	}
	if u < 2 {
		return 0, fmt.Errorf("capacity: U = %d < 2; equality check needs rho >= 1 with rho <= U/2", u)
	}
	return int(u / 2), nil
}

// GammaStarFast returns min over {G - F : F subset of V \ {source},
// |F| <= f} of the broadcast mincut. This is the node-deletion subfamily of
// the reachable graphs; it upper-bounds the exact gamma*.
func GammaStarFast(g *graph.Directed, source graph.NodeID, f int) (int64, error) {
	if !g.HasNode(source) {
		return 0, fmt.Errorf("capacity: source %d not in graph", source)
	}
	best, err := g.BroadcastMincut(source)
	if err != nil {
		return 0, err
	}
	var candidates []graph.NodeID
	for _, v := range g.Nodes() {
		if v != source {
			candidates = append(candidates, v)
		}
	}
	subsets := subsetsUpTo(candidates, f)
	for _, fs := range subsets {
		if len(fs) == 0 {
			continue
		}
		keep := diffNodes(g.Nodes(), fs)
		sub := g.Induced(keep)
		if sub.NumNodes() < 2 {
			continue
		}
		gm, err := sub.BroadcastMincut(source)
		if err != nil {
			// Some node unreachable after deletions: that subgraph cannot
			// occur in a valid execution (connectivity >= 2f+1 prevents it)
			// unless the model preconditions fail; surface it.
			return 0, fmt.Errorf("capacity: G-%v: %w", fs, err)
		}
		if gm < best {
			best = gm
		}
	}
	return best, nil
}

// GammaStarExact enumerates the full reachable family: all dispute
// pair-sets D whose pairs are incident on a candidate faulty set F with
// |F| <= f, mapping each through dispute.Apply. maxWork bounds the number
// of graphs evaluated; exceeding it returns an error directing callers to
// GammaStarFast.
func GammaStarExact(g *graph.Directed, source graph.NodeID, f int, maxWork int) (int64, error) {
	if !g.HasNode(source) {
		return 0, fmt.Errorf("capacity: source %d not in graph", source)
	}
	if maxWork <= 0 {
		maxWork = 200000
	}
	best, err := g.BroadcastMincut(source)
	if err != nil {
		return 0, err
	}
	nodes := g.Nodes()
	seen := map[string]struct{}{}
	work := 0
	for _, fs := range subsetsUpTo(nodes, f) {
		if len(fs) == 0 {
			continue
		}
		// Pairs incident on fs (adjacent in g).
		var pairs [][2]graph.NodeID
		pairSeen := map[[2]graph.NodeID]struct{}{}
		for _, a := range fs {
			for _, b := range g.Neighbors(a) {
				key := [2]graph.NodeID{a, b}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if _, dup := pairSeen[key]; !dup {
					pairSeen[key] = struct{}{}
					pairs = append(pairs, key)
				}
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		if len(pairs) > 22 {
			return 0, fmt.Errorf("capacity: %d candidate dispute pairs for F=%v; exact enumeration infeasible, use GammaStarFast", len(pairs), fs)
		}
		for mask := 1; mask < 1<<len(pairs); mask++ {
			key := maskKey(fs, pairs, mask)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			work++
			if work > maxWork {
				return 0, fmt.Errorf("capacity: exact enumeration exceeded %d graphs, use GammaStarFast", maxWork)
			}
			ds := dispute.NewSet()
			for i, p := range pairs {
				if mask&(1<<i) != 0 {
					if err := ds.Add(p[0], p[1]); err != nil {
						return 0, err
					}
				}
			}
			gk, _, err := ds.Apply(g, f)
			if err != nil {
				// Not coverable by f nodes: unreachable dispute set; but
				// pairs are incident on fs with |fs| <= f, so fs itself
				// covers. This cannot happen.
				return 0, fmt.Errorf("capacity: apply: %w", err)
			}
			if !gk.HasNode(source) || gk.NumNodes() < 2 {
				continue // source confirmed faulty: BB trivially default
			}
			gm, err := gk.BroadcastMincut(source)
			if err != nil {
				// Disconnected instance graph: with connectivity >= 2f+1
				// and a valid dispute set this is impossible; skip rather
				// than understate gamma* with a zero from a non-reachable
				// graph.
				continue
			}
			if gm < best {
				best = gm
			}
		}
	}
	return best, nil
}

func maskKey(fs []graph.NodeID, pairs [][2]graph.NodeID, mask int) string {
	var sb strings.Builder
	for i, p := range pairs {
		if mask&(1<<i) != 0 {
			fmt.Fprintf(&sb, "%d-%d;", p[0], p[1])
		}
	}
	return sb.String()
}

// RhoStar returns rho* = U_1/2 as a real number (the paper's asymptotic
// parameter), along with U_1.
func RhoStar(g *graph.Directed, f int) (float64, int64, error) {
	omega := dispute.Omega(g, dispute.NewSet(), g.NumNodes()-f)
	u, err := U(omega)
	if err != nil {
		return 0, 0, err
	}
	return float64(u) / 2, u, nil
}

// Report is the full capacity analysis of a network.
type Report struct {
	N          int
	F          int
	Source     graph.NodeID
	Gamma1     int64   // gamma of G itself
	U1         int64   // U over Omega_1
	RhoStar    float64 // U1/2
	GammaStar  int64
	GammaExact bool    // whether GammaStar came from exact enumeration
	CapacityUB float64 // min(gammaStar, 2 rhoStar), Theorem 2
	TNABBound  float64 // gammaStar*rhoStar/(gammaStar+rhoStar), Theorem 3
	Guarantee  float64 // 1/2 when gammaStar <= rhoStar, else 1/3
}

// Analyze computes a Report. When exact is true the reachable-graph family
// is enumerated exactly (small networks only); otherwise the node-deletion
// family is used.
func Analyze(g *graph.Directed, source graph.NodeID, f int, exact bool) (*Report, error) {
	if f < 0 {
		return nil, fmt.Errorf("capacity: f = %d must be non-negative", f)
	}
	n := g.NumNodes()
	if n < 3*f+1 {
		return nil, fmt.Errorf("capacity: n = %d < 3f+1 = %d", n, 3*f+1)
	}
	gamma1, err := g.BroadcastMincut(source)
	if err != nil {
		return nil, err
	}
	rhoStar, u1, err := RhoStar(g, f)
	if err != nil {
		return nil, err
	}
	var gammaStar int64
	if exact {
		gammaStar, err = GammaStarExact(g, source, f, 0)
	} else {
		gammaStar, err = GammaStarFast(g, source, f)
	}
	if err != nil {
		return nil, err
	}
	r := &Report{
		N: n, F: f, Source: source,
		Gamma1: gamma1, U1: u1, RhoStar: rhoStar,
		GammaStar: gammaStar, GammaExact: exact,
	}
	gs := float64(gammaStar)
	r.CapacityUB = gs
	if 2*rhoStar < gs {
		r.CapacityUB = 2 * rhoStar
	}
	if gs+rhoStar > 0 {
		r.TNABBound = gs * rhoStar / (gs + rhoStar)
	}
	if gs <= rhoStar {
		r.Guarantee = 0.5
	} else {
		r.Guarantee = 1.0 / 3
	}
	return r, nil
}

// subsetsUpTo enumerates all subsets of nodes with size 0..k, sorted by
// size then lexicographically.
func subsetsUpTo(nodes []graph.NodeID, k int) [][]graph.NodeID {
	var out [][]graph.NodeID
	var rec func(start int, cur []graph.NodeID)
	rec = func(start int, cur []graph.NodeID) {
		out = append(out, append([]graph.NodeID(nil), cur...))
		if len(cur) == k {
			return
		}
		for i := start; i < len(nodes); i++ {
			rec(i+1, append(cur, nodes[i]))
		}
	}
	rec(0, nil)
	return out
}

func diffNodes(all, remove []graph.NodeID) []graph.NodeID {
	rm := map[graph.NodeID]struct{}{}
	for _, v := range remove {
		rm[v] = struct{}{}
	}
	var out []graph.NodeID
	for _, v := range all {
		if _, bad := rm[v]; !bad {
			out = append(out, v)
		}
	}
	return out
}
