// Package sim is a synchronous point-to-point network simulator matching
// the paper's system model: nodes execute in lockstep rounds, each directed
// link has a fixed capacity z_e, and transmitting b bits over a link is
// charged b/z_e time units.
//
// Node behaviour is supplied as Process implementations; each round every
// process, in node order on the caller's goroutine, consumes the messages
// delivered to it and emits messages for the next round. Byzantine nodes
// are ordinary Process implementations that happen to lie — the engine
// enforces only physics: a node can send solely on its own outgoing links
// in the current topology, and every transmitted bit is charged to the
// link.
//
// Two time accountings are exposed per phase, matching the paper's two
// regimes:
//
//   - cut-through (zero propagation delay, the paper's default): a phase
//     lasts max over links of total-bits/capacity, regardless of hop count;
//   - store-and-forward: rounds are sequential, each lasting the max over
//     links of that round's bits/capacity (the regime that motivates the
//     Appendix D pipelining construction).
package sim

import (
	"cmp"
	"fmt"
	"slices"

	"nab/internal/graph"
)

// Message is one transmission over a directed link. Bits is the
// information-theoretic size charged against the link capacity; Body is the
// payload, opaque to the engine.
type Message struct {
	From graph.NodeID
	To   graph.NodeID
	Bits int64
	Body any
}

// Process is per-node behaviour. Step is called once per round with the
// messages delivered this round (sorted by sender) and returns the messages
// to be delivered next round. The steps of one execution never overlap,
// but different executions may run at once (the pipelined runtime keeps
// several instances in flight), so state a Process shares across
// executions must synchronise itself.
type Process interface {
	Step(round int, inbox []Message) []Message
}

// StepFunc adapts a function to the Process interface.
type StepFunc func(round int, inbox []Message) []Message

// Step implements Process.
func (f StepFunc) Step(round int, inbox []Message) []Message { return f(round, inbox) }

// Silent is a Process that never sends anything (a crashed node, or a node
// that ignores a phase).
var Silent Process = StepFunc(func(int, []Message) []Message { return nil })

// SentRecord is one transcript entry (for tests and metrics; protocol code
// must never read the global transcript — honest nodes only see their own
// links).
type SentRecord struct {
	Phase string
	Round int
	Msg   Message
}

// Engine drives one topology. It is not safe for concurrent use.
type Engine struct {
	g       *graph.Directed
	links   *Links
	procs   map[graph.NodeID]Process
	pending []Message // queued for delivery at the next round
	record  bool
	records []SentRecord
	dropped int
}

// New returns an engine over topology g. All nodes default to Silent.
func New(g *graph.Directed) *Engine {
	e := &Engine{g: g.Clone(), links: NewLinks(g), procs: map[graph.NodeID]Process{}}
	for _, v := range g.Nodes() {
		e.procs[v] = Silent
	}
	return e
}

// Graph returns a copy of the engine's topology.
func (e *Engine) Graph() *graph.Directed { return e.g.Clone() }

// SetProcess installs the behaviour for node v.
func (e *Engine) SetProcess(v graph.NodeID, p Process) error {
	if !e.g.HasNode(v) {
		return fmt.Errorf("sim: node %d not in topology", v)
	}
	if p == nil {
		return fmt.Errorf("sim: nil process for node %d", v)
	}
	e.procs[v] = p
	return nil
}

// SetRecording toggles transcript recording (off by default).
func (e *Engine) SetRecording(on bool) { e.record = on }

// Records returns the transcript so far.
func (e *Engine) Records() []SentRecord { return e.records }

// Dropped returns how many messages were discarded for violating physics
// (sent on a non-existent link). Nonzero values with honest-only processes
// indicate protocol bugs; tests assert on this.
func (e *Engine) Dropped() int { return e.dropped }

// RunPhase executes rounds lockstep rounds under the given phase label and
// returns the phase's capacity charges. Messages emitted in the final round
// remain pending and are delivered in the next phase's first round.
func (e *Engine) RunPhase(name string, rounds int) (*PhaseStats, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("sim: rounds = %d must be positive", rounds)
	}
	ps := NewPhaseStats(name, e.links, rounds)
	nodes := e.g.Nodes()
	for round := 0; round < rounds; round++ {
		inboxes := e.routePending()
		for _, v := range nodes {
			for _, m := range e.procs[v].Step(round, inboxes[v]) {
				if m.From != v {
					// A node cannot forge another sender; physics drops it.
					e.dropped++
					continue
				}
				link, ok := e.links.EdgeIndex(m.From, m.To)
				if !ok {
					e.dropped++
					continue
				}
				if m.Bits < 0 {
					e.dropped++
					continue
				}
				ps.Charge(round, link, m.Bits)
				e.pending = append(e.pending, m)
				if e.record {
					e.records = append(e.records, SentRecord{Phase: name, Round: round, Msg: m})
				}
			}
		}
	}
	return ps, nil
}

// routePending distributes queued messages into per-recipient inboxes with
// deterministic ordering (by sender, then destination, then queue order).
func (e *Engine) routePending() map[graph.NodeID][]Message {
	inboxes := map[graph.NodeID][]Message{}
	msgs := append([]Message(nil), e.pending...)
	slices.SortStableFunc(msgs, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	for _, m := range msgs {
		inboxes[m.To] = append(inboxes[m.To], m)
	}
	e.pending = e.pending[:0]
	return inboxes
}
