package nab

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"nab/internal/cluster"
	"nab/internal/core"
	"nab/internal/dispute"
	"nab/internal/runtime"
	"nab/internal/wal"
)

// Seq is the broadcast sequence number a Session assigns at submission:
// the NAB instance number (1-based) the payload will commit as. Commits
// are delivered strictly in Seq order.
type Seq int

// Commit is one committed broadcast instance, delivered on
// Session.Commits in submission order.
type Commit struct {
	// Seq echoes the sequence number Submit returned for this payload.
	Seq Seq
	// Result is the full instance report: per-node outputs (local nodes
	// only under WithCluster), the mismatch/phase3 schedule and
	// dispute-control findings.
	Result *InstanceResult
	// Replayed marks a commit re-delivered from the write-ahead log by a
	// Recover session: it was committed (and delivered) by a previous
	// incarnation of the process.
	Replayed bool
}

// ErrSessionDraining is returned by Submit while the session drains:
// Drain closed the submission stream but accepted payloads are still
// committing.
var ErrSessionDraining = errors.New("nab: session draining: submit after drain")

// ErrSessionClosed is returned by Submit once the session has ended —
// after Close, after a completed Drain, or once the engine failed.
var ErrSessionClosed = errors.New("nab: session closed")

// DisputeSet is the accumulated dispute relation (pairs and proven-faulty
// nodes) an engine carries across instances.
type DisputeSet = dispute.Set

// sessionOptions collects the functional options of Open.
type sessionOptions struct {
	lockstep  bool
	window    int
	transport Transport
	chanOpts  *TransportOptions

	cluster     *ClusterConfig
	clusterID   NodeID
	clusterOpts ClusterOptions

	durability *durabilityOptions

	// Flight-recorder arming (see WithFlightRecorder / flight.go).
	flightCapacity  int
	flightPredicate func(FlightEvent) bool
}

// SessionOption customizes Open.
type SessionOption func(*sessionOptions)

// WithLockstep runs the session on the lockstep synchronous simulator
// (core.Runner) — one instance at a time, the paper's reference model and
// the oracle the concurrent engines are verified against.
func WithLockstep() SessionOption {
	return func(o *sessionOptions) { o.lockstep = true }
}

// WithWindow sets the pipelined engine's in-flight window W (default 4).
// W=1 degenerates to sequential execution on the concurrent engine.
func WithWindow(w int) SessionOption {
	return func(o *sessionOptions) { o.window = w }
}

// WithTransport runs the pipelined engine's node links over tr (e.g.
// NewTCPTransport) instead of the default in-process bus. The session
// takes ownership and closes it.
func WithTransport(tr Transport) SessionOption {
	return func(o *sessionOptions) { o.transport = tr }
}

// WithTransportOptions tunes the pipelined engine's default in-process
// bus (token-bucket pacing, chaos physics). Open rejects it alongside
// WithTransport, WithLockstep or WithCluster, which run no such bus.
func WithTransportOptions(opt TransportOptions) SessionOption {
	return func(o *sessionOptions) { o.chanOpts = &opt }
}

// WithCluster joins a multi-process cluster as the host of node id and
// runs the session on the partial engine driving this process's nodes
// (full-mesh TCP links, coordinator control plane). The engine
// configuration — topology, window, scripted adversaries — comes from the
// shared cluster config, so the Config passed to Open must be zero.
// Every process of the cluster must feed its session identical payload
// sequences.
func WithCluster(cfg *ClusterConfig, id NodeID, opt ClusterOptions) SessionOption {
	return func(o *sessionOptions) {
		o.cluster = cfg
		o.clusterID = id
		o.clusterOpts = opt
	}
}

// Session is the one entry point into every NAB execution engine:
// clients Submit payloads continuously and consume Commits as they land,
// with the engine keeping its pipeline full in between — the
// session-oriented shape of a long-lived coded-broadcast service.
//
//	sess, err := nab.Open(ctx, cfg, nab.WithWindow(4))
//	...
//	go func() {
//		for _, p := range payloads {
//			if _, err := sess.Submit(ctx, p); err != nil { ... }
//		}
//		sess.Drain(ctx)
//	}()
//	for c := range sess.Commits() {
//		// c.Result.Outputs — committed in Seq order
//	}
//	err = sess.Err()
//
// All engines commit byte-identical outputs for identical payload
// sequences; the differential session tests assert it continuously.
type Session struct {
	lenBytes int
	node     *ClusterNode // non-nil for WithCluster sessions
	closer   func() error
	disputes func() *DisputeSet
	cancel   context.CancelFunc

	// flightDisarm clears what armFlight installed on the process-global
	// flight recorder (predicate, autodump dir); nil when nothing was.
	flightDisarm func()

	// Durability state (nil without WithDurability/Recover).
	slog         *sessionLog
	replayed     []*core.InstanceResult // recovered commits re-delivered at open
	recoveredSeq Seq                    // highest sequence restored from the WAL

	// submitMu serializes producers and guards the submission stream's
	// lifecycle, so Drain never closes subs under a blocked send.
	submitMu sync.Mutex
	subs     chan []byte
	next     Seq
	drained  bool

	// subTimes records each accepted payload's submit time until its
	// commit observes the end-to-end latency; guarded by its own mutex
	// because the commit side runs in the engine goroutine.
	subTimeMu sync.Mutex
	subTimes  map[Seq]time.Time

	commits chan Commit
	done    chan struct{}
	err     error           // terminal error; written before done closes
	res     *PipelineResult // aggregate accounting; written before done closes

	closeOnce sync.Once
	closeErr  error
}

// Open validates cfg, starts the selected engine and returns a live
// Session. The default engine is the concurrent pipelined runtime;
// WithLockstep selects the synchronous simulator and WithCluster the
// multi-process partial engine. Canceling ctx aborts the session: every
// in-flight instance execution is torn down (mid-dispute included),
// Commits closes, and Err reports the cancellation.
//
// Close the session when done — it owns the engine and its transport.
func Open(ctx context.Context, cfg Config, opts ...SessionOption) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		cancel:       cancel,
		commits:      make(chan Commit, commitBuffer),
		done:         make(chan struct{}),
		subTimes:     map[Seq]time.Time{},
		flightDisarm: armFlight(&o),
	}
	fail := func(err error) (*Session, error) {
		cancel()
		if s.slog != nil {
			s.slog.close()
		}
		if s.flightDisarm != nil {
			s.flightDisarm()
		}
		return nil, err
	}

	// Durability: open (or resume) the WAL before the engine, so every
	// engine starts from the recovered state.
	rec := &recovery{}
	if o.durability != nil {
		if o.durability.dir == "" {
			return fail(errors.New("nab: WithSnapshotInterval needs WithDurability or Recover to name the log directory"))
		}
		if n := o.durability.snapEvery; n < 0 {
			return fail(fmt.Errorf("nab: WithSnapshotInterval(%d): the interval must be positive, or 0 for the default", n))
		}
		if o.cluster != nil && o.durability.snapEvery != 0 {
			return fail(errors.New("nab: WithCluster logs snapshot at rollback floors, not at WithSnapshotInterval; drop the conflicting options"))
		}
		var fp uint64
		node := int64(-1)
		if o.cluster != nil {
			fp = wal.Fingerprint(o.cluster.Topology, o.cluster.Source, o.cluster.F,
				o.cluster.LenBytes, o.cluster.Seed, clusterAdversaryString(o.cluster))
			node = int64(o.clusterID)
			_, err := o.cluster.Graph()
			if err != nil {
				return fail(err)
			}
			s.slog, rec, err = openSessionLog(o.durability, fp, node, true)
			if err != nil {
				return fail(err)
			}
		} else {
			if cfg.Graph == nil {
				return fail(errors.New("nab: durability needs a configured topology"))
			}
			fp = wal.Fingerprint(cfg.Graph.Marshal(), cfg.Source, cfg.F,
				cfg.LenBytes, cfg.Seed, adversaryString(cfg.Adversaries))
			var err error
			s.slog, rec, err = openSessionLog(o.durability, fp, node, false)
			if err != nil {
				return fail(err)
			}
		}
		s.replayed = rec.replayed
		s.recoveredSeq = Seq(rec.tail)
		s.next = Seq(rec.tail)
	}

	switch {
	case o.cluster != nil:
		if o.lockstep || o.transport != nil || o.chanOpts != nil || o.window != 0 {
			return fail(errors.New("nab: WithCluster derives engine, window and transport from the cluster config; drop the conflicting options"))
		}
		if !reflect.ValueOf(cfg).IsZero() {
			return fail(errors.New("nab: WithCluster derives the configuration from the cluster config; pass a zero Config"))
		}
		if o.clusterOpts.Join && s.slog == nil {
			return fail(errors.New("nab: ClusterOptions.Join needs WithDurability: the transferred state must be persisted"))
		}
		var crec *cluster.Recovery
		if s.slog != nil {
			// The cluster node's history starts above the snapshot floor:
			// foldList, not replayed (the surviving log tail may also carry
			// commits below a floor snapshot persisted after them).
			crec = &cluster.Recovery{
				Committed:    rec.foldList,
				Inputs:       rec.inputs,
				PersistFloor: s.slog.persistFloor,
				SyncWAL:      s.slog.log.Sync,
			}
			if rec.resumed {
				// A blank log has no floor to hand over (and a joiner
				// must not claim one).
				crec.Base = &rec.base
			}
		}
		node, err := cluster.StartContext(sctx, o.cluster, o.clusterID, o.clusterOpts, crec)
		if err != nil {
			return fail(err)
		}
		s.lenBytes = o.cluster.LenBytes
		s.node = node
		s.closer = node.Close
		s.disputes = node.Runtime().Disputes
		s.subs = make(chan []byte, max(1, o.cluster.Window))
		go func() {
			if !s.emitReplayed(sctx) {
				s.finish(nil, sctx.Err())
				return
			}
			// The node's result already spans the recovered prefix.
			res, err := node.Stream(sctx, s.subs, s.emitFunc(sctx))
			s.finish(res, err)
		}()

	case o.lockstep:
		if o.transport != nil || o.chanOpts != nil {
			return fail(errors.New("nab: the lockstep engine runs on the synchronous simulator, not a transport; drop the conflicting options"))
		}
		if o.window > 1 {
			return fail(fmt.Errorf("nab: the lockstep engine is sequential; window %d needs the pipelined engine", o.window))
		}
		runner, err := core.NewRunner(cfg)
		if err != nil {
			return fail(err)
		}
		if s.slog != nil {
			if err := runner.RestoreSnapshot(rec.base.SnapshotState, rec.foldList); err != nil {
				return fail(err)
			}
			if err := s.slog.follow(runner.Protocol(), rec); err != nil {
				return fail(err)
			}
		}
		s.lenBytes = cfg.LenBytes
		s.disputes = runner.Disputes
		if _, err := s.preloadSubs(rec, 1); err != nil {
			return fail(err)
		}
		go s.runLockstep(sctx, runner)

	default:
		if o.transport != nil && o.chanOpts != nil {
			return fail(errors.New("nab: WithTransportOptions tunes the in-process bus that WithTransport replaces; drop the conflicting options"))
		}
		rc := runtime.Config{Config: cfg, Window: o.window, Transport: o.transport}
		if o.chanOpts != nil {
			rc.ChanOptions = *o.chanOpts
		}
		rt, err := runtime.New(rc)
		if err != nil {
			return fail(err)
		}
		s.closer = rt.Close
		if s.slog != nil {
			if err := rt.RestoreSnapshot(0, rec.base.SnapshotState, rec.foldList); err != nil {
				return fail(err)
			}
			if err := s.slog.follow(rt.Protocol(), rec); err != nil {
				return fail(err)
			}
		}
		s.lenBytes = cfg.LenBytes
		s.disputes = rt.Disputes
		if _, err := s.preloadSubs(rec, rt.Window()); err != nil {
			return fail(err)
		}
		go func() {
			if !s.emitReplayed(sctx) {
				s.finish(nil, sctx.Err())
				return
			}
			res, err := rt.RunStream(sctx, s.subs, s.emitFunc(sctx))
			if res != nil {
				for _, ir := range s.replayed {
					res.Add(ir, false)
				}
			}
			s.finish(res, err)
		}()
	}
	return s, nil
}

// preloadSubs sizes the submission channel to hold the recovered
// uncommitted backlog plus the engine's window and enqueues the backlog,
// so recovered payloads re-enter the stream ahead of any new Submit.
func (s *Session) preloadSubs(rec *recovery, window int) (int, error) {
	backlog, err := rec.uncommitted()
	if err != nil {
		return 0, err
	}
	s.subs = make(chan []byte, len(backlog)+max(1, window))
	for _, in := range backlog {
		s.subs <- in
	}
	return len(backlog), nil
}

// emitReplayed re-delivers the recovered commits on the Commits channel
// before any live traffic; false means the session context ended first.
func (s *Session) emitReplayed(ctx context.Context) bool {
	for _, ir := range s.replayed {
		select {
		case s.commits <- Commit{Seq: Seq(ir.K), Result: ir, Replayed: true}:
			mCommitsReplayed.Inc()
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// adversaryString canonicalizes an in-process adversary assignment for
// the WAL fingerprint: sorted node=type pairs. Type identity is the best
// a map of interface values offers — two adversaries of one type with
// different internal parameters hash alike (cluster configs, which carry
// full spec strings, do better).
func adversaryString(advs map[NodeID]Adversary) string {
	if len(advs) == 0 {
		return ""
	}
	nodes := make([]NodeID, 0, len(advs))
	for v := range advs {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var sb strings.Builder
	for _, v := range nodes {
		fmt.Fprintf(&sb, "%d=%T;", v, advs[v])
	}
	return sb.String()
}

// clusterAdversaryString canonicalizes a cluster config's scripted
// adversaries (full spec strings, sorted by node).
func clusterAdversaryString(cfg *ClusterConfig) string {
	specs := make([]ClusterNodeSpec, len(cfg.Nodes))
	copy(specs, cfg.Nodes)
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	var sb strings.Builder
	for _, ns := range specs {
		if ns.Adversary != "" {
			fmt.Fprintf(&sb, "%d=%s;", ns.ID, ns.Adversary)
		}
	}
	return sb.String()
}

// emitFunc is the engine's per-commit hook: append to the write-ahead
// log (durable sessions), then push onto the Commits channel with
// backpressure, aborting if the session context ends first.
func (s *Session) emitFunc(ctx context.Context) func(*core.InstanceResult) error {
	return func(ir *core.InstanceResult) error {
		if s.slog != nil {
			if err := s.slog.logCommit(ir); err != nil {
				return fmt.Errorf("nab: wal commit: %w", err)
			}
		}
		select {
		case s.commits <- Commit{Seq: Seq(ir.K), Result: ir}:
			mCommits.Inc()
			s.subTimeMu.Lock()
			t, ok := s.subTimes[Seq(ir.K)]
			delete(s.subTimes, Seq(ir.K))
			s.subTimeMu.Unlock()
			if ok {
				mCommitLatency.Observe(time.Since(t).Seconds())
			}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runLockstep adapts the synchronous simulator to the streaming shape:
// one instance at a time, pulled from the submission queue.
func (s *Session) runLockstep(ctx context.Context, runner *core.Runner) {
	if !s.emitReplayed(ctx) {
		s.finish(nil, ctx.Err())
		return
	}
	res := &runtime.Result{
		RunResult: core.RunResult{LenBits: runner.Protocol().LenBits()},
		Window:    1,
	}
	for _, ir := range s.replayed {
		res.Add(ir, false)
	}
	emit := s.emitFunc(ctx)
	start := time.Now()
	var err error
loop:
	for {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		case in, ok := <-s.subs:
			if !ok {
				break loop
			}
			var ir *core.InstanceResult
			if ir, err = runner.RunInstance(in); err != nil {
				break loop
			}
			res.Add(ir, false)
			if err = emit(ir); err != nil {
				break loop
			}
		}
	}
	res.Wall = time.Since(start)
	if err != nil {
		s.finish(nil, err)
		return
	}
	s.finish(res, nil)
}

// finish records the session's terminal state. done closes before commits
// so a consumer that sees Commits end always observes the final Err.
func (s *Session) finish(res *runtime.Result, err error) {
	if s.slog != nil {
		s.slog.log.Sync() // push the trailing commit records to disk
	}
	s.res = res
	s.err = err
	close(s.done)
	close(s.commits)
}

// Submit enqueues one broadcast payload and returns the sequence number
// it will commit as. Submit blocks while the pipeline is saturated (W
// instances in flight, submission queue full) — the session's
// backpressure — until ctx is canceled, the payload is accepted, or the
// session ends. Concurrent Submits are serialized; the returned Seq
// promises ordering, not commitment — a session that fails or is canceled
// ends its commit stream early (see Err).
func (s *Session) Submit(ctx context.Context, payload []byte) (Seq, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(payload) != s.lenBytes {
		return 0, fmt.Errorf("nab: payload is %d bytes, session broadcasts %d", len(payload), s.lenBytes)
	}
	s.submitMu.Lock()
	// An ended session reports ErrSessionClosed even though Close also
	// marks it drained: closed is the stronger, terminal state.
	if err := s.endedErr(); err != nil {
		s.submitMu.Unlock()
		return 0, err
	}
	if s.drained {
		s.submitMu.Unlock()
		return 0, ErrSessionDraining
	}
	p := append([]byte(nil), payload...) // the caller may reuse its buffer
	enqueue := time.Now()
	select {
	case s.subs <- p:
		s.next++
		seq := s.next
		mSubmitWait.Observe(time.Since(enqueue).Seconds())
		s.subTimeMu.Lock()
		s.subTimes[seq] = time.Now()
		s.subTimeMu.Unlock()
		if s.slog == nil {
			s.submitMu.Unlock()
			return seq, nil
		}
		// Append under the lock (record order must match sequence
		// order), fsync outside it: concurrent submitters coalesce into
		// one group-committed fsync, and the commit logger orders itself
		// behind this record.
		err := s.slog.appendSubmit(int(seq), p)
		s.submitMu.Unlock()
		if err == nil {
			err = s.slog.syncSubmits()
		}
		if err != nil {
			return seq, fmt.Errorf("nab: wal submit: %w", err)
		}
		return seq, nil
	case <-ctx.Done():
		s.submitMu.Unlock()
		return 0, ctx.Err()
	case <-s.done:
		s.submitMu.Unlock()
		return 0, s.endedErr()
	}
}

// RecoveredSeq returns the highest sequence number restored from the
// write-ahead log (0 for fresh sessions): a Recover session has already
// accounted for every payload up to it — committed ones are re-delivered
// with Commit.Replayed set, uncommitted ones re-enter the stream
// automatically — so a producer replaying its workload should skip them.
func (s *Session) RecoveredSeq() Seq { return s.recoveredSeq }

// endedErr reports the session's terminal state as a Submit error, nil
// while it is still live.
func (s *Session) endedErr() error {
	select {
	case <-s.done:
		if s.err != nil {
			return fmt.Errorf("%w: %w", ErrSessionClosed, s.err)
		}
		return ErrSessionClosed
	default:
		return nil
	}
}

// commitBuffer is the capacity of the Commits channel. A consumer that
// falls more than this many commits behind exerts backpressure: the
// pipeline stalls, and once the submission queue fills, Submit blocks —
// end-to-end flow control from consumer to producer.
const commitBuffer = 16

// Commits returns the stream of committed instances, strictly in Seq
// order, buffered by commitBuffer (16) commits. The channel closes when
// the session ends — after Drain completes the stream cleanly, or early
// on failure or cancellation; check Err once it closes.
func (s *Session) Commits() <-chan Commit { return s.commits }

// Drain closes the submission stream (subsequent Submits fail:
// ErrSessionDraining while accepted payloads still commit,
// ErrSessionClosed once the session has ended) and waits until every
// accepted payload has committed, the session fails, or ctx is
// canceled. It returns the session's terminal error, nil for a clean
// drain.
//
// A Submit blocked on backpressure holds the stream open; Drain waits
// behind it (bounded by ctx) and completes the close once it yields.
func (s *Session) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	closed := make(chan struct{})
	go func() {
		s.closeSubs()
		close(closed)
	}()
	select {
	case <-closed:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-s.done:
		return s.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// closeSubs ends the submission stream exactly once.
func (s *Session) closeSubs() {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if !s.drained {
		s.drained = true
		close(s.subs)
	}
}

// Err returns the session's terminal error: nil while the session is
// live or after a clean drain, the cause otherwise (context.Canceled
// after cancellation). It is the value to check when Commits closes.
func (s *Session) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Result returns the session's aggregate accounting (committed count,
// model time, dispute phases, wall clock, replays, per-link bits) once it
// has ended; nil while live or when the session failed before producing a
// result. A session delivers every per-instance report on Commits and
// keeps none, so Result().Instances is nil — read Committed(), or collect
// the reports from the Commits channel.
func (s *Session) Result() *PipelineResult {
	select {
	case <-s.done:
		return s.res
	default:
		return nil
	}
}

// Disputes snapshots the engine's accumulated dispute set.
func (s *Session) Disputes() *DisputeSet { return s.disputes() }

// Cluster returns the underlying cluster membership for WithCluster
// sessions (transport drop accounting, local node set), nil otherwise.
func (s *Session) Cluster() *ClusterNode { return s.node }

// Close ends the session: the submission stream closes, any in-flight
// executions are aborted (prefer Drain first for a clean shutdown), and
// the engine with its transport is torn down. Close is idempotent and
// safe to call concurrently; it blocks until teardown completes.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		// Cancel first: it ends the engine loop, which releases any
		// Submit blocked on backpressure — that Submit holds submitMu,
		// which closeSubs needs.
		s.cancel()
		<-s.done
		s.closeSubs()
		if s.closer != nil {
			s.closeErr = s.closer()
		}
		if s.slog != nil {
			if err := s.slog.close(); s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.flightDisarm != nil {
			s.flightDisarm()
		}
	})
	return s.closeErr
}
