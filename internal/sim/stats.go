package sim

import (
	"cmp"
	"slices"
	"sync"

	"nab/internal/graph"
)

// PhaseStats aggregates the capacity charges of one phase. Every engine —
// the lockstep Engine here and internal/runtime's actor engine — builds one
// with NewPhaseStats and charges each admitted message through Charge, so
// both produce the same model quantities by construction.
type PhaseStats struct {
	Name        string
	Rounds      int
	BitsPerLink map[[2]graph.NodeID]int64
	caps        map[[2]graph.NodeID]int64

	mu        sync.Mutex
	roundBits []map[[2]graph.NodeID]int64
	roundMax  []float64 // per-round max bits/capacity
	totalBits int64
}

// NewPhaseStats returns an empty phase accumulator over topology g for an
// execution of the given number of rounds.
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
// Charge is safe for concurrent use.
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

// CutThroughTime returns the phase duration in the zero-propagation-delay
// model: max over links of total bits / capacity.
func (ps *PhaseStats) CutThroughTime() float64 {
	var out float64
	for key, b := range ps.BitsPerLink {
		if t := float64(b) / float64(ps.caps[key]); t > out {
			out = t
		}
	}
	return out
}

// StoreForwardTime returns the phase duration when rounds are sequential:
// the sum over rounds of each round's max bits/capacity.
func (ps *PhaseStats) StoreForwardTime() float64 {
	var sum float64
	for _, m := range ps.roundMax {
		sum += m
	}
	return sum
}

// TotalBits returns the number of bits transmitted during the phase.
func (ps *PhaseStats) TotalBits() int64 { return ps.totalBits }

// SortInbox orders one recipient's inbox exactly as the lockstep engine
// delivers it: stable by sender, so messages from one sender keep their
// per-link emission order. Message-driven engines apply it before invoking
// a Process so protocol state evolves identically under both substrates.
func SortInbox(msgs []Message) {
	slices.SortStableFunc(msgs, func(a, b Message) int { return cmp.Compare(a.From, b.From) })
}
