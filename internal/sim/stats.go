package sim

import (
	"nab/internal/graph"
)

// Links is the link numbering of one topology, the graph's own
// (graph.Directed.EdgeIndex), so per-link counters live in flat arrays
// instead of maps. Engines build it once per topology; it is immutable and
// safe for concurrent use.
type Links struct {
	g     *graph.Directed
	edges []graph.Edge // g's edges: link i is edges[i]
}

// NewLinks numbers the links of g.
func NewLinks(g *graph.Directed) *Links {
	g = g.Clone()
	return &Links{g: g, edges: g.Edges()}
}

// Len returns the number of links.
func (l *Links) Len() int { return len(l.edges) }

// EdgeIndex returns the index of link (from, to); ok is false when the
// topology has no such link.
func (l *Links) EdgeIndex(from, to graph.NodeID) (i int, ok bool) { return l.g.EdgeIndex(from, to) }

// PhaseStats aggregates the capacity charges of one phase. Every engine —
// the lockstep Engine here and internal/runtime's message-driven engine —
// builds one with NewPhaseStats and charges each admitted message through
// Charge, so both produce the same model quantities by construction.
//
// The charges are one rounds × links array. Charge takes no lock: both
// engines charge a phase from the one goroutine that runs its steps, and
// the read methods run after the phase's last Charge.
type PhaseStats struct {
	Name   string
	Rounds int
	links  *Links
	bits   []int64 // round-major: bits[round*links.Len()+link]
}

// NewPhaseStats returns an empty phase accumulator over the given links
// for an execution of the given number of rounds.
func NewPhaseStats(name string, links *Links, rounds int) *PhaseStats {
	return &PhaseStats{Name: name, Rounds: rounds, links: links, bits: make([]int64, rounds*links.Len())}
}

// Charge records bits transmitted on link (an index of the phase's Links)
// during the 0-based emission round, which must be below Rounds.
//
//nab:allocfree
func (ps *PhaseStats) Charge(round, link int, bits int64) {
	ps.bits[round*len(ps.links.edges)+link] += bits
}

// CutThroughTime returns the phase duration in the zero-propagation-delay
// model: max over links of total bits / capacity.
func (ps *PhaseStats) CutThroughTime() float64 {
	var out float64
	for i, e := range ps.links.edges {
		var b int64
		for r := i; r < len(ps.bits); r += len(ps.links.edges) {
			b += ps.bits[r]
		}
		if t := float64(b) / float64(e.Cap); t > out {
			out = t
		}
	}
	return out
}

// StoreForwardTime returns the phase duration when rounds are sequential:
// the sum over rounds of each round's max bits/capacity.
func (ps *PhaseStats) StoreForwardTime() float64 {
	var sum float64
	n := len(ps.links.edges)
	for r := 0; r < ps.Rounds; r++ {
		var most float64
		for i, b := range ps.bits[r*n : (r+1)*n] {
			if c := ps.links.edges[i].Cap; c > 0 {
				if t := float64(b) / float64(c); t > most {
					most = t
				}
			}
		}
		sum += most
	}
	return sum
}

// TotalBits returns the number of bits transmitted during the phase.
func (ps *PhaseStats) TotalBits() int64 {
	var sum int64
	for _, b := range ps.bits {
		sum += b
	}
	return sum
}
