package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/transport"
)

// errAborted reports an instance execution cancelled at a dispute-control
// barrier; the scheduler re-executes the instance on the fresh snapshot.
var errAborted = errors.New("runtime: instance aborted")

// topology is the step topology of one Runtime, built once in New and
// shared read-only by every instance engine. Its per-node arrays are
// indexed by the graph's node numbering (graph.Directed.Index) and its
// links by the graph's edge numbering (sim.Links.EdgeIndex).
type topology struct {
	nodes    []graph.NodeID   // the graph's Nodes(): node i is nodes[i]
	in       [][]graph.NodeID // in[i]: nodes[i]'s in-neighbours, ascending
	out      [][]graph.NodeID // out[i]: nodes[i]'s out-neighbours, ascending
	outLinks [][]int          // outLinks[i][j]: index of link (nodes[i], out[i][j])
	links    *sim.Links
}

func newTopology(g *graph.Directed) *topology {
	t := &topology{nodes: g.Nodes(), links: sim.NewLinks(g)}
	t.in = make([][]graph.NodeID, len(t.nodes))
	t.out = make([][]graph.NodeID, len(t.nodes))
	t.outLinks = make([][]int, len(t.nodes))
	for i, v := range t.nodes {
		for _, e := range g.InEdges(v) {
			t.in[i] = append(t.in[i], e.From)
		}
		for _, e := range g.OutEdges(v) {
			l, _ := t.links.EdgeIndex(v, e.To)
			t.out[i] = append(t.out[i], e.To)
			t.outLinks[i] = append(t.outLinks[i], l)
		}
	}
	return t
}

// pos returns v's index in nodes.
func (t *topology) pos(v graph.NodeID) (int, bool) { return rank(t.nodes, v) }

// rank returns v's index in the ascending ids. It is not generic, so the
// //nab:allocfree deliver calls it without the analyzer reading the
// generic call's type arguments as boxed values.
func rank(ids []graph.NodeID, v graph.NodeID) (int, bool) {
	return slices.BinarySearch(ids, v)
}

// mailbox buffers one hosted node's step frames for one instance. Each
// step's frames sit in a slot array indexed by the sender's rank among the
// node's sorted in-neighbours, so a step is ready when every slot is
// filled and its inbox comes out in sender order without sorting. It is
// unbounded in steps so transport demultiplexing never blocks behind a
// node that has not caught up (which would couple unrelated instances).
// The owning engine's mutex guards it.
type mailbox struct {
	in    []graph.NodeID // in-neighbours, ascending: one slot each
	steps map[uint32]*stepSlots
	free  []*stepSlots  // consumed steps' slot arrays, for reuse
	inbox []sim.Message // the node's inbox, reused by every take
	next  uint32        // the node's next step; earlier steps are consumed
}

// stepSlots holds one step's frames by sender rank.
type stepSlots struct {
	frames []*transport.Message
	filled int
}

func newMailbox(in []graph.NodeID) *mailbox {
	return &mailbox{in: in, steps: map[uint32]*stepSlots{}}
}

// deliver files one step frame into its sender's slot and reports whether
// it made the node's next step ready. A frame that is not a step frame, a
// frame from a node that is not an in-neighbour, a frame for step 0 (which
// has none) or a consumed step, and a repeat frame from the same sender
// for the same step are dropped: none fills a slot, so none can release a
// step.
//
//nab:allocfree
func (mb *mailbox) deliver(m *transport.Message) bool {
	if m.Packets == nil || m.Step == 0 || m.Step < mb.next {
		return false
	}
	r, ok := rank(mb.in, m.From)
	if !ok {
		return false
	}
	s := mb.steps[m.Step]
	if s == nil {
		s = mb.slots()
		mb.steps[m.Step] = s
	}
	if s.frames[r] != nil {
		return false
	}
	s.frames[r] = m
	s.filled++
	return m.Step == mb.next && s.filled == len(mb.in)
}

// slots returns an empty slot array, recycled when one is free.
func (mb *mailbox) slots() *stepSlots {
	if n := len(mb.free); n > 0 {
		s := mb.free[n-1]
		mb.free = mb.free[:n-1]
		return s
	}
	return &stepSlots{frames: make([]*transport.Message, len(mb.in))}
}

// ready reports whether one frame from every in-neighbour has arrived for
// the node's next step. Step 0 waits for nothing.
func (mb *mailbox) ready() bool {
	if mb.next == 0 || len(mb.in) == 0 {
		return true
	}
	s := mb.steps[mb.next]
	return s != nil && s.filled == len(mb.in)
}

// take consumes the node's next step, which must be ready, and returns its
// inbox: the frames' packets by sender, each sender's packets in emission
// order — the lockstep engine's delivery order. u's step frame carries
// everything u emitted toward this node in the step before, so its
// arrival is u's end-of-step promise. The inbox is valid until the next
// take.
func (mb *mailbox) take() []sim.Message {
	inbox := mb.inbox[:0]
	if s := mb.steps[mb.next]; s != nil {
		for i, f := range s.frames {
			for _, p := range f.Packets {
				inbox = append(inbox, sim.Message{From: f.From, To: f.To, Bits: p.Bits, Body: p.Body})
			}
			s.frames[i] = nil
		}
		s.filled = 0
		delete(mb.steps, mb.next)
		mb.free = append(mb.free, s)
	}
	mb.inbox = inbox
	mb.next++
	return inbox
}

// instanceEngine is the message-driven core.PhaseEngine. It runs on the
// execution's own goroutine and steps each hosted node as soon as that
// node's in-neighbourhood has finished the previous step, synchronized by
// per-link step frames rather than a global round loop. Nodes therefore
// advance as a wavefront, and several engines run concurrently over one
// shared transport, which is what makes instance pipelining real.
//
// The engine preserves sim.Engine's semantics exactly: messages emitted in
// round r are delivered in round r+1, inboxes are ordered by sender,
// final-round emissions carry into the next phase, a node can send only on
// its own outgoing links, and every bit is charged to its link.
//
// It is also the execution's core.ScheduleView: decisions its own nodes
// derive go to publish, and one they cannot derive is waited for until
// Decide files it.
type instanceEngine struct {
	launch  uint64
	k       int // the instance; set by start, before the execution runs
	topo    *topology
	send    func(*transport.Message) error
	publish func(Decision) error // nil: decisions stay local

	locals []int         // positions in topo.nodes of the hosted nodes
	procs  []sim.Process // by position; hosted nodes only
	mail   []*mailbox    // by position; nil for a node hosted elsewhere

	// mu guards the mailboxes, aborted and the filed decisions. cond wakes
	// the execution when a hosted node's next step becomes ready, a
	// decision it waits for is filed or fails, or the execution aborts.
	mu           sync.Mutex
	cond         sync.Cond
	aborted      bool
	mismatch     bool
	haveMismatch bool
	audit        *core.AuditResult
	decErr       error // set by FailDecisions

	stepBase uint32
	dropped  int64 // written by RunPhase; read once the execution is done
}

// newEngine builds the engine for one execution; engMu must be
// write-held. With LocalNodes set, only those nodes get mailboxes and run
// here: the remaining nodes run in peer processes, whose step frames
// arrive over the shared transport exactly like local ones — step
// synchronization does not care which process a neighbour lives in.
func (rt *Runtime) newEngine(launch uint64) *instanceEngine {
	e := &instanceEngine{
		launch:  launch,
		topo:    rt.topo,
		send:    rt.sendFrame,
		publish: rt.cfg.Publish,
		decErr:  rt.decErr,
		procs:   make([]sim.Process, len(rt.topo.nodes)),
		mail:    make([]*mailbox, len(rt.topo.nodes)),
	}
	e.cond.L = &e.mu
	for i, v := range rt.topo.nodes {
		if rt.locals != nil && !rt.locals[v] {
			continue
		}
		e.locals = append(e.locals, i)
		e.procs[i] = sim.Silent
		e.mail[i] = newMailbox(rt.topo.in[i])
	}
	return e
}

// SetProcess implements core.PhaseEngine. Only locally hosted nodes
// accept a process.
func (e *instanceEngine) SetProcess(v graph.NodeID, p sim.Process) error {
	i, ok := e.topo.pos(v)
	if !ok || e.mail[i] == nil {
		return fmt.Errorf("runtime: node %d not hosted by this engine", v)
	}
	if p == nil {
		return fmt.Errorf("runtime: nil process for node %d", v)
	}
	e.procs[i] = p
	return nil
}

// deliver routes one frame into the owning node's mailbox and wakes
// RunPhase when the frame makes that node's next step ready.
func (e *instanceEngine) deliver(m *transport.Message) {
	i, ok := e.topo.pos(m.To)
	if !ok || e.mail[i] == nil {
		return
	}
	e.mu.Lock()
	if !e.aborted && e.mail[i].deliver(m) {
		e.cond.Signal()
	}
	e.mu.Unlock()
}

// abort cancels the execution: RunPhase and a Need* wait return
// errAborted instead of waiting on. Idempotent.
func (e *instanceEngine) abort() {
	e.mu.Lock()
	e.aborted = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// decide files d for a Need* wait.
func (e *instanceEngine) decide(d Decision) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d.Audit != nil {
		e.audit = d.Audit
	} else {
		e.mismatch, e.haveMismatch = d.Mismatch, true
	}
	e.cond.Broadcast()
}

// failDecisions makes a decision wait fail with err.
func (e *instanceEngine) failDecisions(err error) {
	e.mu.Lock()
	e.decErr = err
	e.cond.Broadcast()
	e.mu.Unlock()
}

// DecidedMismatch implements core.ScheduleView.
func (e *instanceEngine) DecidedMismatch(mismatch bool) error {
	return e.publishDecision(Decision{Mismatch: mismatch})
}

// DecidedAudit implements core.ScheduleView.
func (e *instanceEngine) DecidedAudit(a *core.AuditResult) error {
	return e.publishDecision(Decision{Audit: a})
}

func (e *instanceEngine) publishDecision(d Decision) error {
	if e.publish == nil {
		return nil
	}
	d.Launch, d.K = e.launch, e.k
	return e.publish(d)
}

// NeedMismatch implements core.ScheduleView.
func (e *instanceEngine) NeedMismatch() (mm bool, err error) {
	err = e.await("mismatch decision", func() bool { mm = e.mismatch; return e.haveMismatch })
	return mm, err
}

// NeedAudit implements core.ScheduleView.
func (e *instanceEngine) NeedAudit() (a *core.AuditResult, err error) {
	err = e.await("audit decision", func() bool { a = e.audit; return a != nil })
	return a, err
}

// await waits until filed, called under e.mu, reports the decision in,
// the execution aborts or decisions fail.
func (e *instanceEngine) await(what string, filed func() bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !filed() {
		switch {
		case e.aborted:
			return errAborted
		case e.decErr != nil:
			return fmt.Errorf("runtime: instance %d: %s: %w", e.k, what, e.decErr)
		}
		e.cond.Wait()
	}
	return nil
}

// Dropped returns how many emissions violated physics.
func (e *instanceEngine) Dropped() int64 { return e.dropped }

// RunPhase implements core.PhaseEngine on the caller's goroutine: it runs
// whichever hosted node's next step is ready until every hosted node has
// run `rounds` steps, and returns the phase's capacity charges.
func (e *instanceEngine) RunPhase(name string, rounds int) (*sim.PhaseStats, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("runtime: rounds = %d must be positive", rounds)
	}
	ps := sim.NewPhaseStats(name, e.topo.links, rounds)
	end := e.stepBase + uint32(rounds)
	for left := len(e.locals) * rounds; left > 0; left-- {
		i, abs, inbox, err := e.take(end)
		if err != nil {
			return nil, err
		}
		if err := e.step(i, abs, inbox, ps); err != nil {
			return nil, err
		}
	}
	e.stepBase = end
	return ps, nil
}

// take blocks until some hosted node's next step below end is ready,
// consumes it, and returns the node's position, the step and its inbox.
func (e *instanceEngine) take(end uint32) (int, uint32, []sim.Message, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.aborted {
		for _, i := range e.locals {
			if mb := e.mail[i]; mb.next < end && mb.ready() {
				abs := mb.next
				return i, abs, mb.take(), nil
			}
		}
		e.cond.Wait()
	}
	return 0, 0, nil, errAborted
}

// step runs the node at position i for absolute step abs. It sends one
// frame to every out-neighbour carrying the packets the node emitted
// toward that neighbour, in emission order — possibly none. A step
// allocates one packet array and one frame array, whatever the
// out-degree: the frames' packet lists are windows of the one array.
func (e *instanceEngine) step(i int, abs uint32, inbox []sim.Message, ps *sim.PhaseStats) error {
	v, outs, links := e.topo.nodes[i], e.topo.out[i], e.topo.outLinks[i]
	r := int(abs - e.stepBase)
	emits := e.procs[i].Step(r, inbox)
	// A node cannot forge senders or invent links; physics drops such
	// emissions, exactly as the lockstep engine does. Every other
	// emission lands in exactly one out-neighbour's frame. The packet
	// array is non-nil even when empty: a step frame's Packets always is.
	pkts := make([]transport.Packet, 0, len(emits))
	out := make([]transport.Message, len(outs))
	for j, u := range outs {
		start := len(pkts)
		var bits int64
		for _, m := range emits {
			if m.From == v && m.To == u && m.Bits >= 0 {
				pkts = append(pkts, transport.Packet{Bits: m.Bits, Body: m.Body})
				bits += m.Bits
			}
		}
		ps.Charge(r, links[j], bits)
		out[j] = transport.Message{
			Instance: e.launch, Step: abs + 1, From: v, To: u,
			Bits: bits, Packets: pkts[start:len(pkts):len(pkts)],
		}
	}
	if d := len(emits) - len(pkts); d > 0 {
		e.dropped += int64(d)
	}
	for j := range out {
		if err := e.send(&out[j]); err != nil {
			return err
		}
	}
	return nil
}
