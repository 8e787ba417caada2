package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/transport"
)

// The control plane distributes the two per-instance schedule decisions a
// process cannot always decode from its own nodes' broadcasts: the agreed
// MISMATCH bit (does Phase 3 run?) and the audit findings (what does
// every process fold?). The coordinator — the process hosting the source
// — decodes both locally for every instance (runtime.Config.Publish) and
// streams them to followers as JSON lines. Each carries its execution's
// launch number, which every process gives the same execution, and a
// follower files it into that execution with runtime.Decide, exactly as
// a frame is filed. Only an execution whose local nodes have all fallen
// out of the instance graph (i.e. were proven faulty) reads it, so
// trusting the coordinator for them weakens nothing: honest nodes always
// decode their own decisions.
//
// Decisions are replayed to late-connecting followers, making process
// start order irrelevant.
//
// Everything a process tells the coordinator — the shutdown barrier's
// "done", a rejoin, the rollback round's phase acks, a join server's
// state — takes one path: up(m). A follower writes it to its control
// connection, whose reader on the coordinator hands it to handle(m); the
// coordinator calls handle(m) directly. A follower opens every control
// connection by announcing its lead node id ("subscribe"); the reader pins
// the connection to that id and stamps it on every message it hands on, so
// one process casts one join vote, the coordinator counts followers, not
// connections, before it prunes the replay log, and each process counts
// once per round phase and once at the shutdown barrier. The coordinator
// stamps its own messages with its own lead.
//
// The coordinator's half is one coordinator value behind one mutex: the
// replay log, the follower queues, the subscribed ids and the
// roundMachine, which runs the rollback round and the shutdown barrier as
// a pure function of the messages sent up. handle, publish and Close take
// the lock, step the machine and fan its broadcasts out to the follower
// queues without blocking. Events for the coordinator's own supervisor
// are pushed only once the lock is released, so a slow supervisor holds
// back the caller that fed it, never the lock.

// ctrlMsg is one control-plane message on the wire.
//
// Decision types ("mismatch", "audit") are logged and replayed to
// late-connecting followers. "subscribe" opens a follower's connection.
// The rollback-round types — up: "rejoin",
// "synced", "joined", "rewound", "state"; down: "sync", "fetch",
// "rewind", "resume" and the relayed "state" — are live-only: each
// belongs to one rollback round (Round), and replaying a stale round to a
// later subscriber could re-trigger a rollback that already completed.
type ctrlMsg struct {
	Type     string            `json:"type"`
	K        int               `json:"k"`
	Launch   uint64            `json:"launch,omitempty"` // decisions: the execution's launch number
	Mismatch bool              `json:"mismatch,omitempty"`
	Output   []byte            `json:"output,omitempty"`
	Disputes [][2]graph.NodeID `json:"disputes,omitempty"`
	Faulty   []graph.NodeID    `json:"faulty,omitempty"`
	// Rollback-round coordinates (rejoin protocol).
	Round int    `json:"round,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Join-round fields. A blank process announcing itself turns the
	// rollback round into a join round: the coordinator's "fetch" (boundary
	// K, pre-join watermark M, Servers) opens a phase in which every server
	// pushes one "state" and the joiner acks "joined" (see join.go).
	Blank   bool    `json:"blank,omitempty"`   // synced: the acker is a blank joiner
	Floor   int     `json:"floor,omitempty"`   // synced: acker's rewind floor
	Peer    int64   `json:"peer,omitempty"`    // subscribe/synced/state/joined: lead node id of the sender
	M       int     `json:"m,omitempty"`       // fetch: the pre-join watermark
	Data    []byte  `json:"data,omitempty"`    // state: canonical snapshot bytes at K
	Digest  uint64  `json:"digest,omitempty"`  // state: commit-chain digest at M
	Servers []int64 `json:"servers,omitempty"` // fetch: eligible serving processes
}

// msgMax bounds one control message for payloads of lenBytes bytes. The
// largest is an audit, whose Output is the payload in base64 (4/3 of
// it); snapshots, dispute lists and the rest are small.
func msgMax(lenBytes int) int { return 2*lenBytes + 64<<10 }

// readMsgs hands each message read from conn to handle until the
// connection fails or a message is malformed or longer than max bytes.
func readMsgs(conn net.Conn, max int, handle func(ctrlMsg)) error {
	lim := &io.LimitedReader{R: conn}
	dec := json.NewDecoder(lim)
	for {
		lim.N = int64(max) // on top of what the decoder already buffered
		var m ctrlMsg
		if err := dec.Decode(&m); err != nil {
			return err
		}
		handle(m)
	}
}

// phase is one step of a rollback round: reconnect (a follower redialing
// a restarted coordinator), sync, fetch (join rounds only), rewind and
// resume. The coordinator's roundMachine names the phase whose acks it is
// counting, phaseIdle between rounds.
type phase int

const (
	phaseIdle phase = iota
	phaseReconnect
	phaseSync
	phaseFetch
	phaseRewind
	phaseResume
)

func (ph phase) String() string {
	return [...]string{"idle", "reconnect", "sync", "fetch", "rewind", "resume"}[ph]
}

// phases is the coordinator's round table: for each phase whose acks it
// counts, the ack, whether only the round's blank joiners send it (else
// every process does), and the phase its last ack opens. A sync that
// finds blank joiners among non-blank processes opens fetch instead.
var phases = map[phase]struct {
	ack     string
	joiners bool
	next    phase
}{
	phaseSync:   {ack: "synced", next: phaseRewind},
	phaseFetch:  {ack: "joined", joiners: true, next: phaseRewind},
	phaseRewind: {ack: "rewound", next: phaseIdle},
}

// roundMachine is the coordinator's rollback round and shutdown barrier
// as a pure machine: step holds no lock and does no I/O. Every message
// it counts carries its sender's lead id in Peer, and it counts each
// process once per phase and once per barrier.
type roundMachine struct {
	expect    int // processes in the cluster, the coordinator included
	snapEvery int // snapshot boundary interval for join bases (0: the default)

	round    int
	ph       phase
	acks     []ctrlMsg // the current phase's acks, one per lead, in arrival order
	joiners  []int64   // the round's blank joiners, fixed by its sync
	rewind   ctrlMsg   // the broadcast that opens the round's rewind
	done     []int64   // leads at the shutdown barrier in this round
	released bool      // the barrier opened ("alldone" went out)
}

// step takes one message a process sent up and returns the broadcasts it
// opens. A "rejoin" (re)starts a round at sync: a newcomer mid-round must
// be counted, which makes reconnection order irrelevant, and every
// process re-announces "done" after its post-rollback stream. An ack
// counts only in the current round and in the phase that expects it. A
// "done" counts only in the round it was announced in: one sent just
// before a crash-triggered rollback must not release the barrier while a
// straggler still needs its peers' sockets. A "state" is relayed for the
// joiners to count.
func (r *roundMachine) step(m ctrlMsg) []ctrlMsg {
	switch m.Type {
	case "rejoin":
		r.round++
		r.ph, r.acks, r.done = phaseSync, nil, nil
		return []ctrlMsg{{Type: "sync", Round: r.round}}
	case "done":
		if m.Round != r.round || r.released || slices.Contains(r.done, m.Peer) {
			return nil
		}
		r.done = append(r.done, m.Peer)
		if r.released = len(r.done) >= r.expect; !r.released {
			return nil
		}
		return []ctrlMsg{{Type: "alldone"}}
	case "state":
		return []ctrlMsg{m}
	}
	row, ok := phases[r.ph]
	if !ok || m.Type != row.ack || m.Round != r.round || row.joiners && !slices.Contains(r.joiners, m.Peer) ||
		slices.ContainsFunc(r.acks, func(a ctrlMsg) bool { return a.Peer == m.Peer }) {
		return nil
	}
	r.acks = append(r.acks, m)
	need := r.expect
	if row.joiners {
		need = len(r.joiners)
	}
	if len(r.acks) < need {
		return nil
	}
	acks := r.acks
	r.ph, r.acks = row.next, nil
	switch {
	case m.Type == "synced":
		return []ctrlMsg{r.target(acks)}
	case r.ph == phaseRewind:
		return []ctrlMsg{r.rewind}
	}
	return []ctrlMsg{{Type: "resume", Round: r.round}}
}

// target completes a sync and returns the broadcast that opens the next
// phase. The rewind goes to the minimum watermark m of the non-blank
// processes, on a launch epoch above every epoch in use. A blank joiner's
// zero watermark must not drag m down (its peers pruned re-execution
// inputs below their past floors), and it cannot serve state. If some
// but not all processes are blank, the fetch phase comes first and the
// whole cluster rewinds to the snapshot boundary J instead: the joiner
// re-executes (J, m] live, which re-emits the commits a dead incarnation
// took with it, and checks its chain at m against the digest f+1 servers
// agreed on. J is the newest snapshot granule at or below m, raised to
// the highest non-blank floor: no process can rewind below its floor,
// and floors never exceed m, so every non-blank process can serve.
func (r *roundMachine) target(synced []ctrlMsg) ctrlMsg {
	m, floor := -1, 0
	var servers []int64
	r.rewind, r.joiners = ctrlMsg{Type: "rewind", Round: r.round}, nil
	for _, s := range synced {
		r.rewind.Epoch = max(r.rewind.Epoch, s.Epoch+1)
		if s.Blank {
			r.joiners = append(r.joiners, s.Peer)
			continue
		}
		if m < 0 || s.K < m {
			m = s.K
		}
		floor = max(floor, s.Floor)
		servers = append(servers, s.Peer)
	}
	r.rewind.K = max(m, 0) // every process is blank: a fresh cluster
	if r.joiners == nil || servers == nil {
		return r.rewind
	}
	every := r.snapEvery
	if every <= 0 {
		every = DefaultSnapshotInterval
	}
	r.ph, r.rewind.K = phaseFetch, max(m-m%every, floor)
	return ctrlMsg{Type: "fetch", Round: r.round, K: r.rewind.K, M: m, Servers: servers}
}

// ctrlPlane is the per-process control-plane endpoint. Besides the
// decision stream it hosts the shutdown barrier: a process that finished
// its workload must keep its sockets open until every peer finished too
// (stragglers still flush final-round frames to early finishers), so each
// process announces "done" and tears down only after the coordinator's
// "alldone". On the coordinator, listener and coord are set; everything
// its connections, its runtime's publish and its own supervisor share is
// in coord, behind coord's one lock.
type ctrlPlane struct {
	// rt is the runtime decisions are filed into (follower) and whose
	// window bounds the replay log (coordinator); set by attach.
	rt     *runtime.Runtime
	msgMax int

	// durable enables the crash-recovery behaviours: follower control
	// connections redial instead of failing the decision stream, and the
	// rollback-round messages flow.
	durable bool
	addr    string
	// lead is the process's control-plane identity: a follower
	// subscribes under it, the coordinator stamps it on its own messages.
	lead int64
	// events surfaces rollback-round messages (and control-link loss,
	// Type "ctrldown") to the process's stream supervisor. Only written
	// in durable mode, where the supervisor is guaranteed to consume.
	events chan ctrlMsg

	listener net.Listener
	coord    *coordinator

	// Follower side.
	conn    net.Conn
	connGen int        // bumped per replacement; stamps ctrldown events
	connMu  sync.Mutex // guards conn replacement on durable redial
	sendMu  sync.Mutex

	allDone  chan struct{}
	doneOnce sync.Once

	closed    chan struct{}
	closeOnce sync.Once
}

// coordinator is the coordinator's shared state. mu guards every field
// but writers.
type coordinator struct {
	mu         sync.Mutex
	log        []*ctrlMsg      // replayed to each new subscriber
	subs       []chan *ctrlMsg // one queue per follower connection
	subscribed map[int64]bool  // lead ids that have subscribed, redials counted once
	rounds     roundMachine
	writers    sync.WaitGroup // per-follower writers, drained by Close
}

// attach hands the plane its process's runtime and, on a follower,
// starts reading the decision stream into it.
func (p *ctrlPlane) attach(rt *runtime.Runtime) {
	p.rt = rt
	if p.listener == nil {
		go p.readLoop()
	}
}

// publish is the coordinator's runtime.Config.Publish: it logs one of its
// executions' decisions for replay and streams it to every follower. An
// instance launches only once the instance a window below it has
// committed, so the decision of instance K means every instance at or
// below K-W is committed here: their decisions leave the log, and a run
// without a rollback keeps O(W) of them rather than one per instance. The
// log keeps them until every follower has subscribed under its own id: a
// follower whose subscription lands late may still be waiting for them.
func (p *ctrlPlane) publish(d runtime.Decision) error {
	m := ctrlMsg{Type: "mismatch", K: d.K, Launch: d.Launch, Mismatch: d.Mismatch}
	if a := d.Audit; a != nil {
		m = ctrlMsg{Type: "audit", K: d.K, Launch: d.Launch, Output: a.Output, Disputes: a.Disputes, Faulty: a.Faulty}
	}
	c := p.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.subscribed) >= c.rounds.expect-1 {
		c.log = slices.DeleteFunc(c.log, func(l *ctrlMsg) bool {
			return (l.Type == "mismatch" || l.Type == "audit") && l.K <= d.K-p.rt.Window()
		})
	}
	c.log = append(c.log, &m)
	c.fanOutLocked(&m)
	return nil
}

// newCoordinator opens the control-plane listener (or adopts a held one
// from a reservation) and starts serving decision streams to followers.
// expect is the number of processes the shutdown barrier waits for (the
// coordinator included).
func newCoordinator(addr string, expect int, l net.Listener, durable bool, snapEvery, lenBytes int) (*ctrlPlane, error) {
	if l == nil {
		var err error
		l, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: control listen %s: %w", addr, err)
		}
	}
	p := &ctrlPlane{
		msgMax: msgMax(lenBytes), durable: durable, addr: addr,
		events: make(chan ctrlMsg, 64), listener: l,
		coord:   &coordinator{subscribed: map[int64]bool{}, rounds: roundMachine{expect: expect, snapEvery: snapEvery}},
		allDone: make(chan struct{}), closed: make(chan struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

func (p *ctrlPlane) acceptLoop() {
	c := p.coord
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return
		}
		// Register the subscriber and replay the decision log so far; the
		// writer goroutine owns the connection's write half, the reader
		// feeds the follower's messages to handle. The queue holds shared
		// pointers to immutable messages: 8 bytes a slot.
		ch := make(chan *ctrlMsg, 4096)
		c.mu.Lock()
		select {
		case <-p.closed: // accepted under Close: its writers are already drained
			c.mu.Unlock()
			conn.Close()
			return
		default:
		}
		backlog := append([]*ctrlMsg(nil), c.log...)
		c.subs = append(c.subs, ch)
		c.writers.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.writers.Done()
			defer conn.Close()
			bw := bufio.NewWriter(conn)
			enc := json.NewEncoder(bw)
			for _, m := range backlog {
				if enc.Encode(m) != nil {
					return
				}
			}
			if bw.Flush() != nil {
				return
			}
			for m := range ch {
				if enc.Encode(m) != nil || bw.Flush() != nil {
					return
				}
			}
		}()
		go p.readConn(conn)
	}
}

// readConn feeds one follower connection's messages to handle. The
// connection's identity is the lead id of its first "subscribe", which
// counts that follower as subscribed; every later message is stamped with
// it whatever Peer it claims, and messages before it are dropped.
func (p *ctrlPlane) readConn(conn net.Conn) {
	defer conn.Close()
	var lead int64
	readMsgs(conn, p.msgMax, func(m ctrlMsg) {
		switch {
		case m.Type == "subscribe" && lead == 0 && m.Peer != 0:
			lead = m.Peer
			p.coord.mu.Lock()
			p.coord.subscribed[lead] = true
			p.coord.mu.Unlock()
		case lead != 0 && m.Type != "subscribe":
			m.Peer = lead
			p.handle(m)
		}
	})
}

// handle is the coordinator's one inbound path: every message a process
// sends up lands here, the coordinator's own included (see up). It steps
// the round machine and broadcasts what that opens. "alldone" enters the
// replay log, for a follower that subscribes after the release; the rest
// are live-only and also go to the local supervisor. A rewind empties the
// log: decisions at or below its target are never consulted again and
// later ones are re-made identically by the re-execution, so replay to
// future re-subscribers does not grow without bound across rollbacks.
func (p *ctrlPlane) handle(m ctrlMsg) {
	if m.Type == "rejoin" && !p.durable {
		return
	}
	c := p.coord
	c.mu.Lock()
	out := c.rounds.step(m)
	for i := range out {
		b := &out[i]
		switch b.Type {
		case "alldone":
			c.log = append(c.log, b)
			p.doneOnce.Do(func() { close(p.allDone) })
		case "rewind":
			c.log = nil
		}
		c.fanOutLocked(b)
	}
	c.mu.Unlock()
	for _, b := range out {
		if b.Type != "alldone" {
			p.pushEvent(b)
		}
	}
}

// fanOutLocked queues m to every follower. A follower too far behind to
// keep a 4096-message buffer is cut off rather than silently skipped:
// closing its channel makes its writer goroutine exit and close the
// connection, so the follower's decision stream fails fast instead of
// hanging a later Need* forever. Callers hold mu; nobody changes *m after
// it is queued.
func (c *coordinator) fanOutLocked(m *ctrlMsg) {
	keep := c.subs[:0]
	for _, ch := range c.subs {
		select {
		case ch <- m:
			keep = append(keep, ch)
		default:
			close(ch)
		}
	}
	c.subs = keep
}

// up sends one message to the coordinator: over the control connection
// from a follower, straight into handle, stamped with its own lead, on
// the coordinator itself.
func (p *ctrlPlane) up(m ctrlMsg) error {
	if p.listener != nil {
		m.Peer = p.lead
		p.handle(m)
		return nil
	}
	p.connMu.Lock()
	conn := p.conn
	p.connMu.Unlock()
	if conn == nil {
		return fmt.Errorf("cluster: control connection down")
	}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return json.NewEncoder(conn).Encode(m)
}

// pushEvent hands a rollback message to the local stream supervisor.
func (p *ctrlPlane) pushEvent(m ctrlMsg) {
	select {
	case p.events <- m:
	case <-p.closed:
	}
}

// Events returns the supervisor's rollback-message stream (durable mode).
func (p *ctrlPlane) Events() <-chan ctrlMsg { return p.events }

// Reconnect re-establishes a durable follower's control connection after
// the coordinator restarted, and restarts the decision reader.
func (p *ctrlPlane) Reconnect(ctx context.Context, timeout time.Duration) error {
	if p.listener != nil || !p.durable {
		return fmt.Errorf("cluster: reconnect on a non-durable or coordinator control plane")
	}
	if err := p.dial(ctx, timeout); err != nil {
		return fmt.Errorf("cluster: control redial %s: %w", p.addr, err)
	}
	go p.readLoop()
	return nil
}

// staleCtrldown reports a control-loss event that belongs to a
// connection this plane has already replaced; acting on it would tear
// down the healthy successor and spin the reconnect cycle forever.
func (p *ctrlPlane) staleCtrldown(m ctrlMsg) bool {
	if m.Type != "ctrldown" {
		return false
	}
	p.connMu.Lock()
	defer p.connMu.Unlock()
	return m.K < p.connGen
}

// ctrldownNow synthesizes a control-loss event for the CURRENT
// connection (a send on it just failed).
func (p *ctrlPlane) ctrldownNow() ctrlMsg {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	return ctrlMsg{Type: "ctrldown", K: p.connGen}
}

// newFollower dials the coordinator (retrying while the cluster boots)
// and subscribes as lead; attach starts reading its decision stream.
// Canceling ctx aborts the boot-time retry loop.
func newFollower(ctx context.Context, addr string, timeout time.Duration, durable bool, lenBytes int, lead int64) (*ctrlPlane, error) {
	p := &ctrlPlane{
		msgMax: msgMax(lenBytes), durable: durable, addr: addr, lead: lead,
		events:  make(chan ctrlMsg, 64),
		allDone: make(chan struct{}), closed: make(chan struct{}),
	}
	if err := p.dial(ctx, timeout); err != nil {
		return nil, fmt.Errorf("cluster: control dial %s: %w", addr, err)
	}
	return p, nil
}

// dial connects a follower to the coordinator, retrying for up to timeout
// (20s when unset), opens the connection with the follower's "subscribe"
// and makes it the current one.
func (p *ctrlPlane) dial(ctx context.Context, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	conn, err := transport.DialRetry(p.addr, timeout, ctx.Done())
	if err != nil {
		return err
	}
	// A connection that dies under the announcement fails its reader too,
	// which reports the loss like any other.
	_ = json.NewEncoder(conn).Encode(ctrlMsg{Type: "subscribe", Peer: p.lead})
	p.connMu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	p.connGen++
	p.connMu.Unlock()
	return nil
}

func (p *ctrlPlane) readLoop() {
	p.connMu.Lock()
	conn, gen := p.conn, p.connGen
	p.connMu.Unlock()
	err := readMsgs(conn, p.msgMax, func(m ctrlMsg) {
		switch m.Type {
		case "alldone":
			p.doneOnce.Do(func() { close(p.allDone) })
		case "sync", "fetch", "state", "rewind", "resume":
			p.pushEvent(m)
		case "mismatch":
			p.rt.Decide(runtime.Decision{Launch: m.Launch, K: m.K, Mismatch: m.Mismatch})
		case "audit":
			a := &core.AuditResult{Output: m.Output, Disputes: m.Disputes, Faulty: m.Faulty}
			p.rt.Decide(runtime.Decision{Launch: m.Launch, K: m.K, Audit: a})
		}
	})
	conn.Close()
	if p.durable {
		// The coordinator process died. Tell the supervisor — which will
		// redial and rejoin once the coordinator is back — instead of
		// failing every pending decision wait. The event is stamped with
		// this connection's generation, so a loss reported by an
		// already-replaced connection cannot tear down its healthy
		// successor.
		select {
		case <-p.closed:
		default:
			p.pushEvent(ctrlMsg{Type: "ctrldown", K: gen})
		}
		return
	}
	p.rt.FailDecisions(fmt.Errorf("cluster: decision stream ended: %w", err))
	p.doneOnce.Do(func() { close(p.allDone) })
}

// released reports whether the shutdown barrier has opened.
func (p *ctrlPlane) released() bool {
	select {
	case <-p.allDone:
		return true
	default:
		return false
	}
}

// barrier announces this process done and waits (bounded) for the rest of
// the cluster, so sockets stay open while stragglers flush their last
// frames. Best effort: on timeout, context cancellation or a dead control
// link it returns anyway — the local results are already committed.
func (p *ctrlPlane) barrier(ctx context.Context, timeout time.Duration) {
	if err := p.up(ctrlMsg{Type: "done"}); err != nil {
		return
	}
	select {
	case <-p.allDone:
	case <-time.After(timeout):
	case <-ctx.Done():
	}
}

// Close tears the control plane down and opens the shutdown barrier.
func (p *ctrlPlane) Close() error {
	p.closeOnce.Do(func() {
		close(p.closed)
		if p.listener != nil {
			p.listener.Close()
			c := p.coord
			c.mu.Lock()
			for _, ch := range c.subs {
				close(ch)
			}
			c.subs = nil
			c.mu.Unlock()
			// Let each writer flush what is queued — the "alldone" release
			// above all — before the process exits: a follower that sees
			// the connection end without it takes the coordinator for
			// crashed and waits out a redial.
			flushed := make(chan struct{})
			go func() {
				c.writers.Wait()
				close(flushed)
			}()
			select {
			case <-flushed:
			case <-time.After(time.Second):
			}
		}
		p.connMu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.connMu.Unlock()
		p.doneOnce.Do(func() { close(p.allDone) })
	})
	return nil
}
