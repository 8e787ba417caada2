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
// one process casts one join vote, and the coordinator counts followers,
// not connections, before it prunes the replay log.

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
// resume. The coordinator's round state names the phase whose acks it is
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

// phaseAck is the ack type the coordinator counts in each phase.
var phaseAck = map[phase]string{phaseSync: "synced", phaseFetch: "joined", phaseRewind: "rewound"}

// ctrlPlane is the per-process control-plane endpoint. Besides the
// decision stream it hosts the shutdown barrier: a process that finished
// its workload must keep its sockets open until every peer finished too
// (stragglers still flush final-round frames to early finishers), so each
// process announces "done" and tears down only after the coordinator's
// "alldone".
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
	lead    int64 // follower: the id it subscribes under
	// events surfaces rollback-round messages (and control-link loss,
	// Type "ctrldown") to the process's stream supervisor. Only written
	// in durable mode, where the supervisor is guaranteed to consume.
	events chan ctrlMsg

	// Coordinator side.
	listener   net.Listener
	expect     int // processes counted at the shutdown barrier
	subMu      sync.Mutex
	log        []*ctrlMsg // replayed to each new subscriber
	subs       []chan *ctrlMsg
	subscribed map[int64]bool // lead ids that have subscribed, redials counted once
	writers    sync.WaitGroup // per-follower writers, drained by Close

	// Coordinator rollback-round state: one ack counter for the current
	// phase, the round's sync acks (the rewind target and the join
	// servers are computed from them) and the rewind the round ends with.
	rbMu      sync.Mutex
	rbRound   int
	rbPhase   phase
	rbAcks    int
	rbNeed    int
	rbSynced  []ctrlMsg
	rbTarget  ctrlMsg
	snapEvery int // snapshot boundary interval for join bases

	// Follower side.
	conn    net.Conn
	connGen int        // bumped per replacement; stamps ctrldown events
	connMu  sync.Mutex // guards conn replacement on durable redial
	sendMu  sync.Mutex

	doneMu    sync.Mutex
	doneCount int
	allDone   chan struct{}
	doneOnce  sync.Once

	closed    chan struct{}
	closeOnce sync.Once
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
	p.subMu.Lock()
	if len(p.subscribed) >= p.expect-1 {
		p.log = slices.DeleteFunc(p.log, func(l *ctrlMsg) bool {
			return (l.Type == "mismatch" || l.Type == "audit") && l.K <= d.K-p.rt.Window()
		})
	}
	p.subMu.Unlock()
	p.broadcast(m)
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
		events: make(chan ctrlMsg, 64), listener: l, expect: expect,
		subscribed: map[int64]bool{}, snapEvery: snapEvery,
		allDone: make(chan struct{}), closed: make(chan struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

func (p *ctrlPlane) acceptLoop() {
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
		p.subMu.Lock()
		select {
		case <-p.closed: // accepted under Close: its writers are already drained
			p.subMu.Unlock()
			conn.Close()
			return
		default:
		}
		backlog := append([]*ctrlMsg(nil), p.log...)
		p.subs = append(p.subs, ch)
		p.writers.Add(1)
		p.subMu.Unlock()
		go func() {
			defer p.writers.Done()
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
			p.subMu.Lock()
			p.subscribed[lead] = true
			p.subMu.Unlock()
		case lead != 0 && m.Type != "subscribe":
			m.Peer = lead
			p.handle(m)
		}
	})
}

// handle is the coordinator's one inbound path: every message a process
// sends up lands here, the coordinator's own included (see up).
func (p *ctrlPlane) handle(m ctrlMsg) {
	switch m.Type {
	case "done":
		p.countDone(m.Round)
	case "rejoin":
		p.startRollback()
	case "synced", "joined", "rewound":
		p.ack(m)
	case "state":
		// Relayed by rebroadcast: the joiners count it, everyone else
		// ignores it.
		p.broadcastCtl(m)
	}
}

// up sends one message to the coordinator: over the control connection
// from a follower, straight into handle on the coordinator itself.
func (p *ctrlPlane) up(m ctrlMsg) error {
	if p.listener != nil {
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

// broadcastCtl fans a live-only rollback message out to every follower
// and to the local supervisor, without entering the replay log.
func (p *ctrlPlane) broadcastCtl(m ctrlMsg) {
	p.subMu.Lock()
	p.fanOutLocked(&m)
	p.subMu.Unlock()
	p.pushEvent(m)
}

// startRollback opens a fresh rollback round: every process is told to
// abort its stream and report its committed watermark. A rejoin arriving
// mid-round restarts the round (the newcomer must be counted), which is
// what makes process reconnection order irrelevant.
func (p *ctrlPlane) startRollback() {
	if !p.durable {
		return
	}
	p.rbMu.Lock()
	p.rbRound++
	p.rbPhase, p.rbAcks, p.rbNeed, p.rbSynced = phaseSync, 0, p.expect, nil
	round := p.rbRound
	p.rbMu.Unlock()
	// Every process re-announces "done" after its post-rollback stream,
	// so the shutdown barrier restarts its count.
	p.doneMu.Lock()
	p.doneCount = 0
	p.doneMu.Unlock()
	p.broadcastCtl(ctrlMsg{Type: "sync", Round: round})
}

// ack counts one phase ack of the current round; acks of another round
// or another phase are stale and dropped. The phase's last ack moves the
// round on: sync → [fetch] → rewind → resume.
func (p *ctrlPlane) ack(m ctrlMsg) {
	p.rbMu.Lock()
	if m.Round != p.rbRound || m.Type != phaseAck[p.rbPhase] {
		p.rbMu.Unlock()
		return
	}
	if m.Type == "synced" {
		p.rbSynced = append(p.rbSynced, m)
	}
	p.rbAcks++
	if p.rbAcks < p.rbNeed {
		p.rbMu.Unlock()
		return
	}
	next := p.advanceLocked()
	p.rbMu.Unlock()
	if next.Type == "rewind" {
		// Decisions at or below the target are never consulted again and
		// later ones are re-made identically by the re-execution; dropping
		// the log keeps replay to future re-subscribers from growing without
		// bound across rollbacks.
		p.subMu.Lock()
		p.log = nil
		p.subMu.Unlock()
	}
	p.broadcastCtl(next)
}

// advanceLocked completes the current phase and returns the broadcast
// that opens the next one. Completing the sync fixes the rollback target
// — the minimum committed instance over the non-blank processes and a
// launch epoch above every epoch in use. Callers hold rbMu.
func (p *ctrlPlane) advanceLocked() ctrlMsg {
	p.rbAcks = 0
	switch p.rbPhase {
	case phaseSync:
		minK, epoch, joins := -1, uint64(0), 0
		for _, s := range p.rbSynced {
			if s.Blank {
				// A blank joiner has no history: its zero watermark must not
				// drag the rewind target down (its peers pruned re-execution
				// inputs below their past floors), and it cannot serve state.
				joins++
			} else if minK < 0 || s.K < minK {
				minK = s.K
			}
			epoch = max(epoch, s.Epoch)
		}
		minK = max(minK, 0) // every process is blank: a fresh cluster
		p.rbTarget = ctrlMsg{Type: "rewind", Round: p.rbRound, K: minK, Epoch: epoch + 1}
		if joins > 0 && joins < len(p.rbSynced) {
			// Join round: insert the fetch phase, and rewind the whole
			// cluster to the snapshot boundary rather than the minimum
			// watermark. The joiner re-executes (boundary, minimum] live —
			// that re-drive is what re-emits the commits a dead incarnation
			// took to its grave — and checks its chain at the minimum
			// against the digest f+1 servers agreed on.
			fetch := p.fetchTargetLocked(minK)
			p.rbTarget.K = fetch.K
			p.rbPhase, p.rbNeed = phaseFetch, joins
			return fetch
		}
	case phaseRewind:
		p.rbPhase = phaseIdle
		return ctrlMsg{Type: "resume", Round: p.rbRound}
	}
	p.rbPhase, p.rbNeed = phaseRewind, p.expect
	return p.rbTarget
}

// fetchTargetLocked computes the join round's "fetch" broadcast: the
// snapshot boundary J the whole round rewinds to, the pre-join minimum
// watermark m the servers' digests are taken at, and the serving
// processes. The boundary starts at the newest snapshot granule at or
// below m and is raised to the highest non-blank floor: no process can
// rewind below its own floor, and floors never exceed m (each is a
// previous round's target, and watermarks only grow), so after the clamp
// every non-blank process is an eligible server. Callers hold rbMu.
func (p *ctrlPlane) fetchTargetLocked(m int) ctrlMsg {
	every := p.snapEvery
	if every <= 0 {
		every = DefaultSnapshotInterval
	}
	fetch := ctrlMsg{Type: "fetch", Round: p.rbRound, K: m - m%every, M: m}
	for _, s := range p.rbSynced {
		if !s.Blank {
			fetch.K = max(fetch.K, s.Floor)
			fetch.Servers = append(fetch.Servers, s.Peer)
		}
	}
	return fetch
}

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

// countDone tallies one process at the shutdown barrier; the last one
// releases everyone. The announcement carries the rollback round it was
// made in: a "done" sent just before a crash-triggered rollback may land
// after the round reset the count, and counting it would release the
// barrier while a straggler still needs its peers' sockets.
func (p *ctrlPlane) countDone(round int) {
	p.rbMu.Lock()
	current := p.rbRound
	p.rbMu.Unlock()
	if round != current {
		return
	}
	p.doneMu.Lock()
	p.doneCount++
	reached := p.doneCount >= p.expect
	p.doneMu.Unlock()
	if reached {
		p.doneOnce.Do(func() {
			p.broadcast(ctrlMsg{Type: "alldone"})
			close(p.allDone)
		})
	}
}

// broadcast appends m to the replay log and fans it out to every follower.
func (p *ctrlPlane) broadcast(m ctrlMsg) {
	p.subMu.Lock()
	defer p.subMu.Unlock()
	p.log = append(p.log, &m)
	p.fanOutLocked(&m)
}

// fanOutLocked queues m to every follower. A follower too far behind to
// keep a 4096-message buffer is cut off rather than silently skipped:
// closing its channel makes its writer goroutine exit and close the
// connection, so the follower's decision stream fails fast instead of
// hanging a later Need* forever. Callers hold subMu; nobody changes *m
// after it is queued.
func (p *ctrlPlane) fanOutLocked(m *ctrlMsg) {
	keep := p.subs[:0]
	for _, ch := range p.subs {
		select {
		case ch <- m:
			keep = append(keep, ch)
		default:
			close(ch)
		}
	}
	p.subs = keep
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
			p.subMu.Lock()
			for _, ch := range p.subs {
				close(ch)
			}
			p.subs = nil
			p.subMu.Unlock()
			// Let each writer flush what is queued — the "alldone" release
			// above all — before the process exits: a follower that sees
			// the connection end without it takes the coordinator for
			// crashed and waits out a redial.
			flushed := make(chan struct{})
			go func() {
				p.writers.Wait()
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
