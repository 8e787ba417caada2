package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
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
// — decodes both locally for every instance and streams them to
// followers as JSON lines; followers buffer them keyed by (instance,
// generation) and only consult the buffer when a local node has fallen
// out of the instance graph (i.e. was proven faulty), so trusting the
// coordinator for them weakens nothing: honest nodes always decode their
// own decisions.
//
// Decisions are replayed to late-connecting followers, making process
// start order irrelevant.
//
// Everything a process tells the coordinator — the shutdown barrier's
// "done", a rejoin, the rollback round's phase acks, a join server's
// state — takes one path: up(m). A follower writes it to its control
// connection, whose reader on the coordinator hands it to handle(m); the
// coordinator calls handle(m) directly. The reader pins each connection to
// the lead node id of its first "synced" ack and stamps that id on every
// "state" it relays, so one process casts one join vote.

// ctrlMsg is one control-plane message on the wire.
//
// Decision types ("mismatch", "audit") are logged and replayed to
// late-connecting followers. The rollback-round types — up: "rejoin",
// "synced", "joined", "rewound", "state"; down: "sync", "fetch",
// "rewind", "resume" and the relayed "state" — are live-only: each
// belongs to one rollback round (Round), and replaying a stale round to a
// later subscriber could re-trigger a rollback that already completed.
type ctrlMsg struct {
	Type     string            `json:"type"`
	K        int               `json:"k"`
	Gen      int               `json:"gen"`
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
	Peer    int64   `json:"peer,omitempty"`    // synced/state/joined: lead node id of the sender
	M       int     `json:"m,omitempty"`       // fetch: the pre-join watermark
	Data    []byte  `json:"data,omitempty"`    // state: canonical snapshot bytes at K
	Digest  uint64  `json:"digest,omitempty"`  // state: commit-chain digest at M
	Servers []int64 `json:"servers,omitempty"` // fetch: eligible serving processes
}

// decisionKey identifies one execution: barrier replays of instance k run
// on a later dispute generation.
type decisionKey struct{ k, gen int }

// decisions is the shared buffer of received (or locally made) decisions.
type decisions struct {
	mu       sync.Mutex
	cond     *sync.Cond
	mismatch map[decisionKey]bool
	audits   map[decisionKey]*core.AuditResult
	failed   error // control connection broken: all waits fail
}

func newDecisions() *decisions {
	d := &decisions{
		mismatch: map[decisionKey]bool{},
		audits:   map[decisionKey]*core.AuditResult{},
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *decisions) put(m ctrlMsg) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := decisionKey{m.K, m.Gen}
	switch m.Type {
	case "mismatch":
		d.mismatch[key] = m.Mismatch
	case "audit":
		d.audits[key] = &core.AuditResult{Output: m.Output, Disputes: m.Disputes, Faulty: m.Faulty}
	}
	d.cond.Broadcast()
}

// prune drops the decisions of instances at or below k.
func (d *decisions) prune(k int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for key := range d.mismatch {
		if key.k <= k {
			delete(d.mismatch, key)
		}
	}
	for key := range d.audits {
		if key.k <= k {
			delete(d.audits, key)
		}
	}
}

func (d *decisions) fail(err error) {
	d.mu.Lock()
	if d.failed == nil {
		d.failed = err
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// view is one execution's runtime.ExecutionView over the decision
// buffer. closed is guarded by the decisions mutex, so a waiter that has
// checked it cannot miss the Close broadcast (a wakeup fired between the
// check and cond.Wait would be lost under a separate lock).
type view struct {
	d      *decisions
	key    decisionKey
	pub    func(ctrlMsg) error // non-nil on the coordinator: broadcast
	closed bool                // guarded by d.mu
}

var _ runtime.ExecutionView = (*view)(nil)

// Close implements runtime.ExecutionView (idempotent).
func (v *view) Close() {
	v.d.mu.Lock()
	v.closed = true
	v.d.cond.Broadcast()
	v.d.mu.Unlock()
}

// wait blocks until ready() yields a value, the view closes, or the
// control plane fails. Caller-side state is all under d.mu.
func wait[T any](v *view, what string, ready func() (T, bool)) (T, error) {
	v.d.mu.Lock()
	defer v.d.mu.Unlock()
	for {
		if val, ok := ready(); ok {
			return val, nil
		}
		var zero T
		if v.d.failed != nil {
			return zero, fmt.Errorf("cluster: control plane: %w", v.d.failed)
		}
		if v.closed {
			return zero, fmt.Errorf("cluster: execution (k=%d, gen=%d) abandoned while awaiting %s", v.key.k, v.key.gen, what)
		}
		v.d.cond.Wait()
	}
}

// DecidedMismatch implements core.ScheduleView: record, and on the
// coordinator broadcast to the followers.
func (v *view) DecidedMismatch(mismatch bool) error {
	msg := ctrlMsg{Type: "mismatch", K: v.key.k, Gen: v.key.gen, Mismatch: mismatch}
	v.d.put(msg)
	if v.pub != nil {
		return v.pub(msg)
	}
	return nil
}

// NeedMismatch implements core.ScheduleView.
func (v *view) NeedMismatch() (bool, error) {
	return wait(v, "mismatch decision", func() (bool, bool) {
		mm, ok := v.d.mismatch[v.key]
		return mm, ok
	})
}

// DecidedAudit implements core.ScheduleView.
func (v *view) DecidedAudit(a *core.AuditResult) error {
	msg := ctrlMsg{Type: "audit", K: v.key.k, Gen: v.key.gen, Output: a.Output, Disputes: a.Disputes, Faulty: a.Faulty}
	v.d.put(msg)
	if v.pub != nil {
		return v.pub(msg)
	}
	return nil
}

// NeedAudit implements core.ScheduleView.
func (v *view) NeedAudit() (*core.AuditResult, error) {
	return wait(v, "audit decision", func() (*core.AuditResult, bool) {
		a, ok := v.d.audits[v.key]
		return a, ok
	})
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

// ctrlPlane is the per-process control-plane endpoint; it implements
// runtime.SchedulePlane. Besides the decision stream it hosts the
// shutdown barrier: a process that finished its workload must keep its
// sockets open until every peer finished too (stragglers still flush
// final-round frames to early finishers), so each process announces
// "done" and tears down only after the coordinator's "alldone".
type ctrlPlane struct {
	d *decisions

	// durable enables the crash-recovery behaviours: follower control
	// connections redial instead of failing the decision stream, and the
	// rollback-round messages flow.
	durable bool
	addr    string
	// events surfaces rollback-round messages (and control-link loss,
	// Type "ctrldown") to the process's stream supervisor. Only written
	// in durable mode, where the supervisor is guaranteed to consume.
	events chan ctrlMsg

	// Coordinator side.
	listener net.Listener
	expect   int // processes counted at the shutdown barrier
	subMu    sync.Mutex
	log      []ctrlMsg
	subs     []chan ctrlMsg
	writers  sync.WaitGroup // per-follower writers, drained by Close

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

var _ runtime.SchedulePlane = (*ctrlPlane)(nil)

// Execution implements runtime.SchedulePlane.
func (p *ctrlPlane) Execution(k, gen int) runtime.ExecutionView {
	v := &view{d: p.d, key: decisionKey{k, gen}}
	if p.listener != nil {
		v.pub = p.broadcast
	}
	return v
}

// Committed implements runtime.SchedulePlane: a committed instance's
// decisions, and any that arrive for it later, are never read again.
func (p *ctrlPlane) Committed(k int) { p.d.prune(k) }

// newCoordinator opens the control-plane listener (or adopts a held one
// from a reservation) and starts serving decision streams to followers.
// expect is the number of processes the shutdown barrier waits for (the
// coordinator included).
func newCoordinator(addr string, expect int, l net.Listener, durable bool, snapEvery int) (*ctrlPlane, error) {
	if l == nil {
		var err error
		l, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: control listen %s: %w", addr, err)
		}
	}
	p := &ctrlPlane{
		d: newDecisions(), durable: durable, addr: addr,
		events: make(chan ctrlMsg, 64), listener: l, expect: expect,
		snapEvery: snapEvery,
		allDone:   make(chan struct{}), closed: make(chan struct{}),
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
		// feeds the follower's messages to handle.
		ch := make(chan ctrlMsg, 4096)
		p.subMu.Lock()
		select {
		case <-p.closed: // accepted under Close: its writers are already drained
			p.subMu.Unlock()
			conn.Close()
			return
		default:
		}
		backlog := append([]ctrlMsg(nil), p.log...)
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
// connection's identity is the lead id of its first "synced": a later
// "synced" naming another id is dropped, and every "state" is stamped with
// the pinned id (dropped while unpinned) whatever Peer it claims.
func (p *ctrlPlane) readConn(conn net.Conn) {
	dec := json.NewDecoder(bufio.NewReader(conn))
	var lead int64
	for {
		var m ctrlMsg
		if err := dec.Decode(&m); err != nil {
			return
		}
		switch m.Type {
		case "synced":
			if lead != 0 && m.Peer != lead {
				continue
			}
			lead = m.Peer
		case "state":
			if lead == 0 {
				continue
			}
			m.Peer = lead
		}
		p.handle(m)
	}
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
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	conn, err := transport.DialRetry(p.addr, timeout, ctx.Done())
	if err != nil {
		return fmt.Errorf("cluster: control redial %s: %w", p.addr, err)
	}
	p.connMu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	p.connGen++
	p.connMu.Unlock()
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

// broadcast appends to the log and fans out to every follower. A
// follower too far behind to keep a 4096-decision buffer is cut off
// rather than silently skipped: closing its channel makes its writer
// goroutine exit and close the connection, so the follower's decision
// stream fails fast instead of hanging a later Need* forever.
func (p *ctrlPlane) broadcast(m ctrlMsg) error {
	p.subMu.Lock()
	defer p.subMu.Unlock()
	p.log = append(p.log, m)
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
	return nil
}

// newFollower dials the coordinator (retrying while the cluster boots)
// and starts buffering its decision stream. Canceling ctx aborts the
// boot-time retry loop.
func newFollower(ctx context.Context, addr string, timeout time.Duration, durable bool) (*ctrlPlane, error) {
	if timeout <= 0 {
		timeout = 20 * time.Second
	}
	conn, err := transport.DialRetry(addr, timeout, ctx.Done())
	if err != nil {
		return nil, fmt.Errorf("cluster: control dial %s: %w", addr, err)
	}
	p := &ctrlPlane{
		d: newDecisions(), durable: durable, addr: addr,
		events: make(chan ctrlMsg, 64), conn: conn,
		allDone: make(chan struct{}), closed: make(chan struct{}),
	}
	go p.readLoop()
	return p, nil
}

func (p *ctrlPlane) readLoop() {
	p.connMu.Lock()
	conn, gen := p.conn, p.connGen
	p.connMu.Unlock()
	dec := json.NewDecoder(bufio.NewReader(conn))
	for {
		var m ctrlMsg
		if err := dec.Decode(&m); err != nil {
			if p.durable {
				// The coordinator process died. Tell the supervisor —
				// which will redial and rejoin once the coordinator is
				// back — instead of failing every pending decision wait.
				// The event is stamped with this connection's generation,
				// so a loss reported by an already-replaced connection
				// cannot tear down its healthy successor.
				select {
				case <-p.closed:
				default:
					p.pushEvent(ctrlMsg{Type: "ctrldown", K: gen})
				}
				return
			}
			p.d.fail(fmt.Errorf("decision stream ended: %w", err))
			p.doneOnce.Do(func() { close(p.allDone) })
			return
		}
		switch m.Type {
		case "alldone":
			p.doneOnce.Do(func() { close(p.allDone) })
		case "sync", "fetch", "state", "rewind", "resume":
			p.pushEvent(m)
		default:
			p.d.put(m)
		}
	}
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

// Close tears the control plane down; pending waits fail.
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
		p.d.fail(fmt.Errorf("control plane closed"))
		p.doneOnce.Do(func() { close(p.allDone) })
	})
	return nil
}
