package sim

import (
	"cmp"
	"slices"

	"nab/internal/graph"
)

// NewPhaseStats returns an empty phase accumulator over topology g for an
// execution of the given number of rounds. It is the constructor used by
// engines other than the lockstep Engine (internal/runtime's actor engine)
// to produce capacity charges with identical semantics; Charge is safe for
// concurrent use.
func NewPhaseStats(name string, g *graph.Directed, rounds int) *PhaseStats {
	ps := &PhaseStats{
		Name:        name,
		Rounds:      rounds,
		BitsPerLink: map[[2]graph.NodeID]int64{},
		caps:        map[[2]graph.NodeID]int64{},
		roundMax:    make([]float64, rounds),
		roundBits:   make([]map[[2]graph.NodeID]int64, rounds),
	}
	for _, ed := range g.Edges() {
		ps.caps[[2]graph.NodeID{ed.From, ed.To}] = ed.Cap
	}
	for r := range ps.roundBits {
		ps.roundBits[r] = map[[2]graph.NodeID]int64{}
	}
	return ps
}

// Charge records bits transmitted on link (from, to) during the 0-based
// emission round, updating both the cut-through and store-and-forward
// accountings. Rounds beyond the constructor's count are grown on demand.
func (ps *PhaseStats) Charge(round int, from, to graph.NodeID, bits int64) {
	key := [2]graph.NodeID{from, to}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for len(ps.roundBits) <= round {
		ps.roundBits = append(ps.roundBits, map[[2]graph.NodeID]int64{})
		ps.roundMax = append(ps.roundMax, 0)
	}
	ps.BitsPerLink[key] += bits
	ps.totalBits += bits
	rb := ps.roundBits[round]
	rb[key] += bits
	if c := ps.caps[key]; c > 0 {
		if t := float64(rb[key]) / float64(c); t > ps.roundMax[round] {
			ps.roundMax[round] = t
		}
	}
}

// SortInbox orders one recipient's inbox exactly as the lockstep engine
// delivers it: stable by sender, so messages from one sender keep their
// per-link emission order. Message-driven engines apply it before invoking
// a Process so protocol state evolves identically under both substrates.
func SortInbox(msgs []Message) {
	slices.SortStableFunc(msgs, func(a, b Message) int { return cmp.Compare(a.From, b.From) })
}
