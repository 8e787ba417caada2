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

// ctrlMsg is one decision or rejoin-protocol message on the wire.
//
// Decision types ("mismatch", "audit") are logged and replayed to
// late-connecting followers. The crash-recovery rollback types —
// "rejoin" (a restarted process announcing itself, follower to
// coordinator), "sync"/"synced", "rewind"/"rewound" and "resume" — are
// live-only: each belongs to one rollback round (Round), and replaying a
// stale round to a later subscriber could re-trigger a rollback that
// already completed.
type ctrlMsg struct {
	Type     string            `json:"type"` // "mismatch" or "audit"
	K        int               `json:"k"`
	Gen      int               `json:"gen"`
	Mismatch bool              `json:"mismatch,omitempty"`
	Output   []byte            `json:"output,omitempty"`
	Disputes [][2]graph.NodeID `json:"disputes,omitempty"`
	Faulty   []graph.NodeID    `json:"faulty,omitempty"`
	// Rollback-round coordinates (rejoin protocol).
	Round int    `json:"round,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Join-round coordinates (snapshot state transfer). A blank process
	// announcing itself turns the rollback round into a join round: the
	// coordinator inserts a "fetch" phase between sync and rewind, during
	// which the joiner pulls a boundary snapshot plus the WAL-fold tail
	// from serving peers ("pull"/"chunk", coordinator-relayed broadcasts
	// addressed by lead node id) and acknowledges with "joined".
	Blank      bool    `json:"blank,omitempty"`      // synced: the acker is a blank joiner
	Floor      int     `json:"floor,omitempty"`      // synced: acker's rewind floor
	Peer       int64   `json:"peer,omitempty"`       // lead node id of the sender/addressee
	M          int     `json:"m,omitempty"`          // fetch/pull: watermark the tail runs to
	Kind       string  `json:"kind,omitempty"`       // pull/chunk: "digest", "snap" or "tail"
	Server     int64   `json:"server,omitempty"`     // pull/chunk: lead node id of the server
	Off        int     `json:"off,omitempty"`        // chunk byte offset
	N          int     `json:"n,omitempty"`          // chunk: total transfer bytes
	Data       []byte  `json:"data,omitempty"`       // chunk payload
	SnapDigest uint64  `json:"snapDigest,omitempty"` // digest chunk: snapshot payload hash at K
	TailDigest uint64  `json:"tailDigest,omitempty"` // digest chunk: chain digest at M
	Servers    []int64 `json:"servers,omitempty"`    // fetch: eligible serving processes
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

	// Coordinator rollback-round state.
	rbMu     sync.Mutex
	rbRound  int
	rbPhase  int // 0 idle, 1 awaiting synced, 2 awaiting rewound, 3 awaiting joined
	rbAcks   int
	rbMinK   int
	rbEpoch  uint64 // max epoch reported this round
	rbTarget ctrlMsg
	// Join-round state: the per-round sync acks (eligibility of serving
	// peers is judged on their reported floors), the number of blank
	// joiners and their "joined" acks, and the snapshot parameters.
	rbSynced  []ctrlMsg
	rbJoins   int
	rbJoined  int
	snapNeed  int // f+1: matching snapshot copies a joiner must see
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

// newCoordinator opens the control-plane listener (or adopts a held one
// from a reservation) and starts serving decision streams to followers.
// expect is the number of processes the shutdown barrier waits for (the
// coordinator included).
func newCoordinator(addr string, expect int, l net.Listener, durable bool, snapNeed, snapEvery int) (*ctrlPlane, error) {
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
		snapNeed: snapNeed, snapEvery: snapEvery,
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
		// counts the follower's barrier announcement and feeds the
		// rejoin protocol.
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
		go func() {
			dec := json.NewDecoder(bufio.NewReader(conn))
			for {
				var m ctrlMsg
				if err := dec.Decode(&m); err != nil {
					return
				}
				switch m.Type {
				case "done":
					p.countDone(m.Round)
				case "rejoin":
					p.startRollback()
				case "synced":
					p.onSynced(m)
				case "rewound":
					p.onRewound(m)
				case "joined":
					p.onJoined(m)
				case "pull", "chunk":
					// State-transfer messages are addressed by lead node
					// id but routed by rebroadcast: the coordinator fans
					// them to every process (followers filter), which
					// keeps the anonymous-follower control plane free of
					// identity bookkeeping.
					p.broadcastCtl(m)
				}
			}
		}()
	}
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
	ctrlLog.Info("rollback-open", "role", "coordinator")
	p.rbMu.Lock()
	p.rbRound++
	p.rbPhase = 1
	p.rbAcks = 0
	p.rbMinK = -1
	p.rbEpoch = 0
	p.rbSynced = nil
	p.rbJoins = 0
	p.rbJoined = 0
	round := p.rbRound
	p.rbMu.Unlock()
	// Every process re-announces "done" after its post-rollback stream,
	// so the shutdown barrier restarts its count.
	p.doneMu.Lock()
	p.doneCount = 0
	p.doneMu.Unlock()
	p.broadcastCtl(ctrlMsg{Type: "sync", Round: round})
}

// onSynced tallies one process's watermark for the current round; the
// last ack fixes the rollback target — the cluster-wide minimum
// committed instance and a launch epoch above every epoch in use — and
// broadcasts the rewind.
func (p *ctrlPlane) onSynced(m ctrlMsg) {
	p.rbMu.Lock()
	if m.Round != p.rbRound || p.rbPhase != 1 {
		p.rbMu.Unlock()
		return
	}
	p.rbAcks++
	p.rbSynced = append(p.rbSynced, m)
	if m.Blank {
		// A blank joiner has no history: its zero watermark must not drag
		// the rewind target down (its peers pruned re-execution inputs
		// below their past floors), and it cannot serve state.
		p.rbJoins++
	} else {
		if p.rbMinK < 0 || m.K < p.rbMinK {
			p.rbMinK = m.K
		}
	}
	if m.Epoch > p.rbEpoch {
		p.rbEpoch = m.Epoch
	}
	if p.rbAcks < p.expect {
		p.rbMu.Unlock()
		return
	}
	if p.rbMinK < 0 {
		p.rbMinK = 0 // every process is blank: a fresh cluster
	}
	p.rbTarget = ctrlMsg{Type: "rewind", Round: p.rbRound, K: p.rbMinK, Epoch: p.rbEpoch + 1}
	if p.rbJoins > 0 && p.rbJoins < p.rbAcks {
		// Join round: insert the fetch phase, and rewind the whole cluster
		// to the snapshot boundary rather than the minimum watermark. The
		// joiner re-executes (boundary, minimum] live — that re-drive is
		// what re-emits the commits a dead incarnation took to its grave —
		// while the fold tail it fetched extends the f+1 digest
		// cross-validation to the minimum watermark, pinning the
		// re-execution it is about to do.
		fetch := p.fetchTargetLocked()
		p.rbTarget.K = fetch.K
		p.rbPhase = 3
		p.rbJoined = 0
		p.rbMu.Unlock()
		p.broadcastCtl(fetch)
		return
	}
	p.rbPhase = 2
	p.rbAcks = 0
	target := p.rbTarget
	p.rbMu.Unlock()
	// Decisions at or below the target are never consulted again and
	// later ones are re-made identically by the re-execution; dropping
	// the log keeps replay to future re-subscribers from growing without
	// bound across rollbacks.
	p.subMu.Lock()
	p.log = nil
	p.subMu.Unlock()
	p.broadcastCtl(target)
}

// fetchTargetLocked computes the join round's "fetch" broadcast: the
// snapshot boundary J the whole round rewinds to, the pre-join minimum
// watermark m the fold tail must reach, and the serving processes. The
// boundary starts at the newest snapshot granule at or below m and is
// raised to the highest non-blank floor: no process can rewind below its
// own floor, and floors never exceed m (each is a previous round's
// target, and watermarks only grow), so after the clamp every non-blank
// process is an eligible server. Callers hold rbMu.
func (p *ctrlPlane) fetchTargetLocked() ctrlMsg {
	m := p.rbMinK
	every := p.snapEvery
	if every <= 0 {
		every = defaultJoinBoundary
	}
	j := m - m%every
	for _, ack := range p.rbSynced {
		if !ack.Blank && ack.Floor > j {
			j = ack.Floor
		}
	}
	return ctrlMsg{Type: "fetch", Round: p.rbRound, K: j, M: m, Servers: p.serversLocked(j)}
}

// serversLocked lists the non-blank processes whose floor allows serving
// a snapshot at watermark j. Callers hold rbMu.
func (p *ctrlPlane) serversLocked(j int) []int64 {
	var out []int64
	for _, ack := range p.rbSynced {
		if !ack.Blank && ack.Floor <= j {
			out = append(out, ack.Peer)
		}
	}
	return out
}

// onJoined counts blank joiners that finished their state transfer; the
// last one lets the round proceed to the rewind phase.
func (p *ctrlPlane) onJoined(m ctrlMsg) {
	p.rbMu.Lock()
	if m.Round != p.rbRound || p.rbPhase != 3 {
		p.rbMu.Unlock()
		return
	}
	p.rbJoined++
	if p.rbJoined < p.rbJoins {
		p.rbMu.Unlock()
		return
	}
	p.rbPhase = 2
	p.rbAcks = 0
	target := p.rbTarget
	p.rbMu.Unlock()
	p.subMu.Lock()
	p.log = nil
	p.subMu.Unlock()
	p.broadcastCtl(target)
}

// onRewound counts rewind completions; the last one releases the cluster.
func (p *ctrlPlane) onRewound(m ctrlMsg) {
	p.rbMu.Lock()
	if m.Round != p.rbRound || p.rbPhase != 2 {
		p.rbMu.Unlock()
		return
	}
	p.rbAcks++
	if p.rbAcks < p.expect {
		p.rbMu.Unlock()
		return
	}
	p.rbPhase = 0
	round := p.rbRound
	p.rbMu.Unlock()
	p.broadcastCtl(ctrlMsg{Type: "resume", Round: round})
}

// announceDone announces this process at the shutdown barrier for the
// given rollback round (0 outside durable mode).
func (p *ctrlPlane) announceDone(round int) error {
	if p.listener != nil {
		p.countDone(round) // the coordinator counts itself
		return nil
	}
	return p.sendCtl(ctrlMsg{Type: "done", Round: round})
}

// sendCtl ships one message up to the coordinator (follower side).
func (p *ctrlPlane) sendCtl(m ctrlMsg) error {
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

// Rejoin announces this process to the rollback protocol: a restarted
// process calls it at boot, and a follower whose control link died calls
// it after reconnecting. On the coordinator it opens the round directly.
func (p *ctrlPlane) Rejoin() error {
	if p.listener != nil {
		p.startRollback()
		return nil
	}
	ctrlLog.Info("send-rejoin", "role", "follower")
	return p.sendCtl(ctrlMsg{Type: "rejoin"})
}

// AckSync reports this process's committed watermark, launch epoch,
// rewind floor and blankness for one rollback round. peer is the
// process's lead node id, the address state-transfer messages route by.
func (p *ctrlPlane) AckSync(round, watermark int, epoch uint64, floor int, blank bool, peer int64) error {
	m := ctrlMsg{Type: "synced", Round: round, K: watermark, Epoch: epoch, Floor: floor, Blank: blank, Peer: peer}
	if p.listener != nil {
		p.onSynced(m)
		return nil
	}
	return p.sendCtl(m)
}

// AckJoined reports a blank joiner's completed state transfer.
func (p *ctrlPlane) AckJoined(round int, peer int64) error {
	m := ctrlMsg{Type: "joined", Round: round, Peer: peer}
	if p.listener != nil {
		p.onJoined(m)
		return nil
	}
	return p.sendCtl(m)
}

// sendTransfer ships a pull or chunk: followers send up to the
// coordinator (which rebroadcasts); the coordinator broadcasts directly.
// Either way every process — the addressee included — sees the message
// on its event stream and filters by Server/Peer.
func (p *ctrlPlane) sendTransfer(m ctrlMsg) error {
	if p.listener != nil {
		p.broadcastCtl(m)
		return nil
	}
	return p.sendCtl(m)
}

// AckRewound reports this process rewound for one rollback round.
func (p *ctrlPlane) AckRewound(round int) error {
	m := ctrlMsg{Type: "rewound", Round: round}
	if p.listener != nil {
		p.onRewound(m)
		return nil
	}
	return p.sendCtl(m)
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
		case "sync", "rewind", "resume", "fetch", "pull", "chunk":
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
	if err := p.announceDone(0); err != nil {
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
