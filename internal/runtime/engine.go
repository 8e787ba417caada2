package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/transport"
)

// errAborted reports an instance execution cancelled at a dispute-control
// barrier; the scheduler re-executes the instance on the fresh snapshot.
var errAborted = errors.New("runtime: instance aborted")

// mailbox buffers one node's step frames for one instance, indexed by
// delivery step. It is unbounded so transport demultiplexing never blocks
// behind a slow actor (which would couple unrelated instances).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	need   int // in-neighbours: one frame from each makes a step ready
	frames map[uint32][]*transport.Message
	next   uint32 // steps below next are consumed (step 0 has no frames)
	closed bool
}

func newMailbox(need int) *mailbox {
	mb := &mailbox{need: need, frames: map[uint32][]*transport.Message{}, next: 1}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// deliver files one step frame. A frame whose body is not a packet list,
// a frame for a consumed step, and a repeat frame from the same sender
// for the same step are dropped, not counted: none can release a step.
func (mb *mailbox) deliver(m *transport.Message) {
	if _, ok := m.Body.([]transport.Packet); !ok {
		return
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed || m.Step < mb.next {
		return
	}
	for _, f := range mb.frames[m.Step] {
		if f.From == m.From {
			return
		}
	}
	mb.frames[m.Step] = append(mb.frames[m.Step], m)
	if len(mb.frames[m.Step]) == mb.need {
		mb.cond.Broadcast()
	}
}

// await blocks until one frame from every in-neighbour has arrived for
// step, then returns them. This is the actor-model realization of the
// synchronous round structure: u's step frame carries everything u
// emitted toward this node in step-1, so its arrival is u's end-of-step
// promise.
func (mb *mailbox) await(step uint32) ([]*transport.Message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for step > 0 && len(mb.frames[step]) < mb.need && !mb.closed {
		mb.cond.Wait()
	}
	if mb.closed {
		return nil, errAborted
	}
	out := mb.frames[step]
	delete(mb.frames, step)
	mb.next = step + 1
	return out, nil
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
	g      *graph.Directed
	send   func(*transport.Message) error

	nodes   []graph.NodeID
	outNbrs map[graph.NodeID][]graph.NodeID
	procs   map[graph.NodeID]sim.Process
	mail    map[graph.NodeID]*mailbox

	stepBase uint32
	dropped  atomic.Int64
	aborted  atomic.Bool
}

// newInstanceEngine builds the engine for one execution. With a non-nil
// locals set, only those nodes get actors and mailboxes: the remaining
// nodes' actors run in peer processes, whose step frames arrive over the
// shared transport exactly like local ones — step synchronization does
// not care which process a neighbour lives in.
func newInstanceEngine(launch uint64, g *graph.Directed, send func(*transport.Message) error, locals map[graph.NodeID]bool) *instanceEngine {
	e := &instanceEngine{
		launch:  launch,
		g:       g,
		send:    send,
		outNbrs: map[graph.NodeID][]graph.NodeID{},
		procs:   map[graph.NodeID]sim.Process{},
		mail:    map[graph.NodeID]*mailbox{},
	}
	for _, v := range g.Nodes() {
		if locals != nil && !locals[v] {
			continue
		}
		e.nodes = append(e.nodes, v)
		for _, ed := range g.OutEdges(v) {
			e.outNbrs[v] = append(e.outNbrs[v], ed.To)
		}
		e.procs[v] = sim.Silent
		e.mail[v] = newMailbox(len(g.InEdges(v)))
	}
	return e
}

// SetProcess implements core.PhaseEngine. Only locally hosted nodes
// accept a process.
func (e *instanceEngine) SetProcess(v graph.NodeID, p sim.Process) error {
	if _, ok := e.mail[v]; !ok {
		return fmt.Errorf("runtime: node %d not hosted by this engine", v)
	}
	if p == nil {
		return fmt.Errorf("runtime: nil process for node %d", v)
	}
	e.procs[v] = p
	return nil
}

// deliver routes one frame into the owning node's mailbox.
func (e *instanceEngine) deliver(m *transport.Message) {
	if mb, ok := e.mail[m.To]; ok {
		mb.deliver(m)
	}
}

// abort cancels the execution: every blocked actor unblocks with
// errAborted. Idempotent.
func (e *instanceEngine) abort() {
	if e.aborted.Swap(true) {
		return
	}
	for _, mb := range e.mail {
		mb.close()
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
	ps := sim.NewPhaseStats(name, e.g, rounds)
	errs := make([]error, len(e.nodes))
	var wg sync.WaitGroup
	for i, v := range e.nodes {
		wg.Add(1)
		go func(i int, v graph.NodeID) {
			defer wg.Done()
			errs[i] = e.runNode(v, e.procs[v], rounds, ps)
			if errs[i] != nil {
				// A failed actor can never send its step frames; abort the
				// whole engine so peers don't wait for them forever.
				e.abort()
			}
		}(i, v)
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

// runNode is one node's actor for one phase. Each step it sends one frame
// to every out-neighbour carrying the packets it emitted toward that
// neighbour, in emission order — possibly none.
func (e *instanceEngine) runNode(v graph.NodeID, proc sim.Process, rounds int, ps *sim.PhaseStats) error {
	mb := e.mail[v]
	outs := e.outNbrs[v]
	for r := 0; r < rounds; r++ {
		abs := e.stepBase + uint32(r)
		frames, err := mb.await(abs)
		if err != nil {
			return err
		}
		n := 0
		for _, f := range frames {
			n += len(f.Body.([]transport.Packet))
		}
		inbox := make([]sim.Message, 0, n)
		for _, f := range frames {
			for _, p := range f.Body.([]transport.Packet) {
				inbox = append(inbox, sim.Message{From: f.From, To: f.To, Bits: p.Bits, Body: p.Body})
			}
		}
		sim.SortInbox(inbox)
		emits := proc.Step(r, inbox)
		// A node cannot forge senders or invent links; physics drops such
		// emissions, exactly as the lockstep engine does. Every other
		// emission lands in exactly one out-neighbour's frame.
		pkts := make([]transport.Packet, 0, len(emits))
		out := make([]transport.Message, len(outs))
		for i, u := range outs {
			start := len(pkts)
			var bits int64
			for _, m := range emits {
				if m.From == v && m.To == u && m.Bits >= 0 {
					pkts = append(pkts, transport.Packet{Bits: m.Bits, Body: m.Body})
					bits += m.Bits
				}
			}
			if len(pkts) > start {
				ps.Charge(r, v, u, bits)
			}
			out[i] = transport.Message{
				Instance: e.launch, Step: abs + 1, From: v, To: u,
				Bits: bits, Body: pkts[start:len(pkts):len(pkts)],
			}
		}
		if d := len(emits) - len(pkts); d > 0 {
			e.dropped.Add(int64(d))
		}
		for i := range out {
			if err := e.send(&out[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
