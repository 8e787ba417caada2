package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/transport"
)

// errAborted reports an instance execution cancelled at a dispute-control
// barrier; the scheduler re-executes the instance on the fresh snapshot.
var errAborted = errors.New("runtime: instance aborted")

// topology is the step topology of one Runtime: every node's sorted in-
// and out-neighbours and the link index of each out-link, built once in
// New and shared read-only by every instance engine.
type topology struct {
	nodes    []graph.NodeID   // ascending
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
			l, _ := t.links.Index(v, e.To)
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

// mailbox buffers one node's step frames for one instance. Each step's
// frames sit in a slot array indexed by the sender's rank among the
// node's sorted in-neighbours, so a step is ready when every slot is
// filled and its inbox comes out in sender order without sorting. It is
// unbounded in steps so transport demultiplexing never blocks behind a
// slow actor (which would couple unrelated instances).
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	in     []graph.NodeID // in-neighbours, ascending: one slot each
	steps  map[uint32]*stepSlots
	free   []*stepSlots  // consumed steps' slot arrays, for reuse
	inbox  []sim.Message // the actor's inbox, reused by every await
	next   uint32        // steps below next are consumed (step 0 has no frames)
	closed bool
}

// stepSlots holds one step's frames by sender rank.
type stepSlots struct {
	frames []*transport.Message
	filled int
}

func newMailbox(in []graph.NodeID) *mailbox {
	mb := &mailbox{in: in, steps: map[uint32]*stepSlots{}, next: 1}
	mb.cond.L = &mb.mu
	return mb
}

// deliver files one step frame into its sender's slot. A frame that is
// not a step frame, a frame from a node that is not an in-neighbour, a
// frame for a consumed step, and a repeat frame from the same sender for
// the same step are dropped: none fills a slot, so none can release a
// step.
//
//nab:allocfree
func (mb *mailbox) deliver(m *transport.Message) {
	if m.Packets == nil {
		return
	}
	r, ok := rank(mb.in, m.From)
	if !ok {
		return
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed || m.Step < mb.next {
		return
	}
	s := mb.steps[m.Step]
	if s == nil {
		s = mb.slots()
		mb.steps[m.Step] = s
	}
	if s.frames[r] != nil {
		return
	}
	s.frames[r] = m
	s.filled++
	if s.filled == len(mb.in) {
		mb.cond.Broadcast()
	}
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

// ready reports whether every in-neighbour's frame for step is in.
func (mb *mailbox) ready(step uint32) bool {
	if len(mb.in) == 0 {
		return true
	}
	s := mb.steps[step]
	return s != nil && s.filled == len(mb.in)
}

// await blocks until one frame from every in-neighbour has arrived for
// step, then returns their packets as the step's inbox: by sender, each
// sender's packets in emission order — the lockstep engine's delivery
// order. This is the actor-model realization of the synchronous round
// structure: u's step frame carries everything u emitted toward this node
// in step-1, so its arrival is u's end-of-step promise. The inbox is
// valid until the next await.
func (mb *mailbox) await(step uint32) ([]sim.Message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for step > 0 && !mb.ready(step) && !mb.closed {
		mb.cond.Wait()
	}
	if mb.closed {
		return nil, errAborted
	}
	mb.next = step + 1
	inbox := mb.inbox[:0]
	if s := mb.steps[step]; s != nil {
		for i, f := range s.frames {
			for _, p := range f.Packets {
				inbox = append(inbox, sim.Message{From: f.From, To: f.To, Bits: p.Bits, Body: p.Body})
			}
			s.frames[i] = nil
		}
		s.filled = 0
		delete(mb.steps, step)
		mb.free = append(mb.free, s)
	}
	mb.inbox = inbox
	return inbox, nil
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// instanceEngine is the message-driven core.PhaseEngine: one actor
// goroutine per node per phase, synchronized by per-link step frames
// rather than a global round loop. Nodes advance as a wavefront —
// a node runs its step as soon as its own in-neighbourhood has finished
// the previous one — and several engines run concurrently over one shared
// transport, which is what makes instance pipelining real.
//
// The engine preserves sim.Engine's semantics exactly: messages emitted in
// round r are delivered in round r+1, inboxes are ordered by sender,
// final-round emissions carry into the next phase, a node can send only on
// its own outgoing links, and every bit is charged to its link.
type instanceEngine struct {
	launch uint64
	topo   *topology
	send   func(*transport.Message) error

	locals []int         // positions in topo.nodes of the hosted nodes
	procs  []sim.Process // by position; hosted nodes only
	mail   []*mailbox    // by position; nil for a node hosted elsewhere

	stepBase uint32
	dropped  atomic.Int64
	aborted  atomic.Bool
}

// newInstanceEngine builds the engine for one execution. With a non-nil
// locals set, only those nodes get actors and mailboxes: the remaining
// nodes' actors run in peer processes, whose step frames arrive over the
// shared transport exactly like local ones — step synchronization does
// not care which process a neighbour lives in.
func newInstanceEngine(launch uint64, topo *topology, send func(*transport.Message) error, locals map[graph.NodeID]bool) *instanceEngine {
	e := &instanceEngine{
		launch: launch,
		topo:   topo,
		send:   send,
		procs:  make([]sim.Process, len(topo.nodes)),
		mail:   make([]*mailbox, len(topo.nodes)),
	}
	for i, v := range topo.nodes {
		if locals != nil && !locals[v] {
			continue
		}
		e.locals = append(e.locals, i)
		e.procs[i] = sim.Silent
		e.mail[i] = newMailbox(topo.in[i])
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

// deliver routes one frame into the owning node's mailbox.
func (e *instanceEngine) deliver(m *transport.Message) {
	if i, ok := e.topo.pos(m.To); ok && e.mail[i] != nil {
		e.mail[i].deliver(m)
	}
}

// abort cancels the execution: every blocked actor unblocks with
// errAborted. Idempotent.
func (e *instanceEngine) abort() {
	if e.aborted.Swap(true) {
		return
	}
	for _, i := range e.locals {
		e.mail[i].close()
	}
}

// Dropped returns how many emissions violated physics.
func (e *instanceEngine) Dropped() int64 { return e.dropped.Load() }

// RunPhase implements core.PhaseEngine: it runs every node's actor for
// `rounds` steps and returns the phase's capacity charges.
func (e *instanceEngine) RunPhase(name string, rounds int) (*sim.PhaseStats, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("runtime: rounds = %d must be positive", rounds)
	}
	ps := sim.NewPhaseStats(name, e.topo.links, rounds)
	errs := make([]error, len(e.locals))
	var wg sync.WaitGroup
	for j, i := range e.locals {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			errs[j] = e.runNode(i, rounds, ps)
			if errs[j] != nil {
				// A failed actor can never send its step frames; abort the
				// whole engine so peers don't wait for them forever.
				e.abort()
			}
		}(j, i)
	}
	wg.Wait()
	// Prefer the root cause over the cascade of errAborted it provoked.
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, errAborted) {
			aborted = err
			continue
		}
		return nil, err
	}
	if aborted != nil {
		return nil, aborted
	}
	e.stepBase += uint32(rounds)
	return ps, nil
}

// runNode is the actor of the node at position i for one phase. Each step
// it sends one frame to every out-neighbour carrying the packets it
// emitted toward that neighbour, in emission order — possibly none. A
// step allocates one packet array and one frame array, whatever the
// out-degree: the frames' packet lists are windows of the one array.
func (e *instanceEngine) runNode(i, rounds int, ps *sim.PhaseStats) error {
	v, proc, mb := e.topo.nodes[i], e.procs[i], e.mail[i]
	outs, links := e.topo.out[i], e.topo.outLinks[i]
	for r := 0; r < rounds; r++ {
		abs := e.stepBase + uint32(r)
		inbox, err := mb.await(abs)
		if err != nil {
			return err
		}
		emits := proc.Step(r, inbox)
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
			e.dropped.Add(int64(d))
		}
		for j := range out {
			if err := e.send(&out[j]); err != nil {
				return err
			}
		}
	}
	return nil
}
