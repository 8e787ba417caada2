// Package runtime executes NAB concurrently: nodes exchange real step
// frames over an internal/transport substrate, and a pipeline scheduler
// keeps a window of W instances in flight — instance t+1's Phase 1
// overlaps instance t's Phase 2/3, the Appendix D construction made
// operational. Pipelining overlaps instances, not the nodes of one
// instance: each execution runs on one goroutine that steps whichever of
// its hosted nodes has a frame from every in-neighbour, so a runtime holds
// one goroutine per execution in flight and none per node. The transport
// hands every inbound frame to the runtime's Serve handler, which files it
// in its execution's mailboxes on whichever goroutine delivered it: the
// sending execution's own on the in-process bus, a link or socket reader
// goroutine otherwise. A frame for a launch this process has not started
// yet files the same way, into mailboxes the launch then adopts; so does a
// schedule decision another process made for the launch (Decide).
//
// The runtime reuses the exact phase logic of internal/core (Protocol /
// InstancePlan / DisputeState) on a message-driven PhaseEngine, so every
// existing Adversary plugs in unchanged and outputs match the lockstep
// core.Runner byte for byte. Instances later than t execute speculatively
// on instance t's dispute-state snapshot; when an instance's Phase 3
// changes the dispute state (a MISMATCH fired), the scheduler raises a
// barrier: speculative executions are aborted and re-run on the fresh
// snapshot. Clean instances — the common case the paper's throughput
// analysis amortizes toward — never wait.
//
// Every launch takes its generation's plan from core.Protocol.Plan, the
// cache the lockstep Runner shares: the verified coding scheme and the
// packed arborescences are built once per dispute generation, by the first
// execution that needs them, off the scheduler goroutine.
package runtime

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nab/internal/core"
	"nab/internal/dispute"
	fr "nab/internal/flight"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/transport"
)

// Config parameterizes a pipelined runtime. The embedded core.Config is
// validated identically to core.NewRunner.
type Config struct {
	core.Config

	// Window is the maximum number of instances in flight (W >= 1).
	// Default 4. W=1 degenerates to sequential execution, which also
	// guarantees deterministic replay for stateful adversaries (see Run).
	Window int

	// Transport overrides the default in-process channel bus — e.g. a
	// *transport.TCP (one single-node transport.Peer per node, every link
	// a loopback socket) for serving, or a cluster process's *transport.Peer.
	// The runtime takes ownership and closes it. It must be built over the
	// same topology as Graph.
	Transport transport.Transport

	// ChanOptions tunes the default in-process bus when Transport is nil
	// (pacing time unit, chaos physics).
	ChanOptions transport.ChanOptions

	// LocalNodes restricts this runtime to hosting the given nodes — the
	// multi-process deployment, where each process steps one (or a few)
	// nodes and the Transport carries the rest of the topology's traffic
	// to peer processes. Colocated nodes share their execution's
	// goroutine like single-process ones. Nil hosts every node
	// (single-process).
	//
	// Every process of a cluster must drive its runtime with the same
	// configuration and the same Run input sequence: the schedulers make
	// identical commit/barrier decisions (folds are deterministic and
	// agreed), and an execution's launch number depends only on its
	// instance, the barriers before it and the window, not on when its
	// submission arrived. That keeps frame and decision routing aligned
	// across processes without any coordination traffic.
	LocalNodes []graph.NodeID

	// Publish, when set, receives every schedule decision an execution
	// derives from its own nodes (see core.ScheduleView) — a cluster
	// coordinator streams them to the processes whose local nodes all fall
	// outside V_k and cannot. Such a process files each one it receives
	// with Decide, and the execution waiting for it reads it there.
	Publish func(Decision) error
}

// Decision is one mid-instance schedule decision of the execution with
// launch number Launch, which runs instance K: the agreed MISMATCH bit or,
// when Audit is set, the dispute-control audit findings.
type Decision struct {
	Launch   uint64
	K        int
	Mismatch bool
	Audit    *core.AuditResult
}

// Runtime hosts the frame demultiplexer, the links and the scheduler for
// one topology; each instance execution steps its hosted nodes on a
// goroutine of its own.
type Runtime struct {
	cfg    Config
	proto  *core.Protocol
	tr     transport.Transport
	locals map[graph.NodeID]bool // nil = all nodes local
	topo   *topology             // the step topology every launch shares

	linkMu sync.RWMutex
	links  map[[2]graph.NodeID]transport.Link

	// engines holds the engine of every started execution (numbered at or
	// below maxLaunch) and of every later launch a frame or decision
	// reached first: peers number launches identically but start them at
	// their own pace. A frame or decision for a launch at or below
	// maxLaunch with no engine belongs to a finished or aborted execution
	// and is dropped, and so is one further ahead than any honest peer runs
	// (see pendingSlack).
	engMu     sync.RWMutex
	engines   map[uint64]*instanceEngine
	maxLaunch uint64
	decErr    error // set by FailDecisions: fails every engine's decision waits

	// Scheduler state: ds is mutated only inside Run (folds are
	// serialized); runMu admits one Run at a time.
	runMu      sync.Mutex
	ds         *core.DisputeState
	nextLaunch uint64

	closeOnce sync.Once
	closeErr  error
}

// New validates cfg, builds the transport (unless supplied) and serves its
// frames to the runtime's demultiplexer.
func New(cfg Config) (*Runtime, error) {
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.Window < 1 {
		if cfg.Transport != nil {
			cfg.Transport.Close()
		}
		return nil, fmt.Errorf("runtime: Window = %d must be >= 1", cfg.Window)
	}
	// Stateful adversaries (e.g. adversary.Random) would race when
	// overlapped instances invoke their hooks concurrently; serialize the
	// hooks so any window is memory-safe. Determinism across windows is a
	// separate matter — see Run.
	if len(cfg.Adversaries) > 0 {
		wrapped := make(map[graph.NodeID]core.Adversary, len(cfg.Adversaries))
		for v, a := range cfg.Adversaries {
			wrapped[v] = &syncAdversary{inner: a}
		}
		cfg.Adversaries = wrapped
	}
	proto, err := core.NewProtocol(cfg.Config)
	if err != nil {
		// The runtime owns a supplied transport even on failed
		// construction — the caller was told not to close it.
		if cfg.Transport != nil {
			cfg.Transport.Close()
		}
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		// Surface a bad chaos spec now rather than from the first lazily
		// dialed link mid-run.
		if err := cfg.ChanOptions.Chaos.Validate(); err != nil {
			return nil, err
		}
		tr = transport.NewChan(cfg.Graph, cfg.ChanOptions)
	}
	var locals map[graph.NodeID]bool
	if cfg.LocalNodes != nil {
		locals = make(map[graph.NodeID]bool, len(cfg.LocalNodes))
		for _, v := range cfg.LocalNodes {
			if !cfg.Graph.HasNode(v) {
				tr.Close()
				return nil, fmt.Errorf("runtime: local node %d not in topology", v)
			}
			locals[v] = true
		}
		if len(locals) == 0 {
			tr.Close()
			return nil, fmt.Errorf("runtime: empty LocalNodes (nil means all-local)")
		}
	}
	rt := &Runtime{
		cfg:     cfg,
		proto:   proto,
		tr:      tr,
		locals:  locals,
		topo:    newTopology(cfg.Graph),
		links:   map[[2]graph.NodeID]transport.Link{},
		engines: map[uint64]*instanceEngine{},
		ds:      core.NewDisputeState(cfg.Graph),
	}
	tr.Serve(rt.dispatch)
	return rt, nil
}

// Protocol returns the validated protocol the runtime drives.
func (rt *Runtime) Protocol() *core.Protocol { return rt.proto }

// Window returns the in-flight limit (after defaulting).
func (rt *Runtime) Window() int { return rt.cfg.Window }

// InstanceGraph returns the current G_k.
func (rt *Runtime) InstanceGraph() *graph.Directed {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	return rt.ds.Graph()
}

// Disputes returns the accumulated dispute set.
func (rt *Runtime) Disputes() *dispute.Set {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	return rt.ds.Disputes()
}

// Close shuts the transport down; in-flight Runs fail.
func (rt *Runtime) Close() error {
	rt.closeOnce.Do(func() { rt.closeErr = rt.tr.Close() })
	return rt.closeErr
}

// Committed returns how many instances the runtime has folded.
func (rt *Runtime) Committed() int {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	return rt.ds.K()
}

// RestoreSnapshot rewrites the scheduler state between streams: the
// dispute state — generation included, which seeds the scheme RNG — is
// restored from snap plus the tail results (Protocol.RestoreState), the
// next instance becomes the tail's end + 1, the restored state plans
// afresh, and launch numbering restarts at launchBase+1. A cluster
// rollback restores from its floor plus the in-memory commits above it.
//
// launchBase exists for the cluster rejoin protocol: after a crash
// + restart every process restores onto an agreed fresh launch epoch
// (strictly above any number the old epoch used), so in-flight frames of
// abandoned executions can never alias a relaunched instance — the
// demultiplexer drops everything at or below the new base. Single-process
// recovery passes 0.
//
// RestoreSnapshot must not race a RunStream; call it before the first
// stream or after the previous one returned (a canceled stream counts —
// cancel reaps every in-flight execution first).
func (rt *Runtime) RestoreSnapshot(launchBase uint64, snap core.SnapshotState, tail []*core.InstanceResult) error {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	ds, err := rt.proto.RestoreState(snap, tail)
	if err != nil {
		return fmt.Errorf("runtime: RestoreSnapshot: %w", err)
	}
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	for launch := range rt.engines {
		if launch <= rt.maxLaunch {
			return fmt.Errorf("runtime: RestoreSnapshot with execution %d in flight", launch)
		}
	}
	rt.ds = ds
	rt.nextLaunch = launchBase
	// The transport serves frames from New on, so a booting cluster
	// process can already hold frames a faster peer sent for the launches
	// it is about to start: their engines stay. Those at or below
	// launchBase belong to an abandoned epoch and go.
	rt.passLaunch(launchBase)
	return nil
}

// pendingSlack bounds how far beyond the newest local launch an early
// frame's launch number may run. An honest peer's scheduler is at most
// one window of speculative launches past the oldest uncommitted
// instance, and it cannot commit (hence advance) an instance before this
// process has launched it too, so the honest gap is under two windows of
// launch numbers; the slack is deliberately generous on top of that.
func (rt *Runtime) pendingSlack() uint64 {
	return uint64(4*rt.cfg.Window + 8)
}

// dispatch is the transport's Serve handler: it files one inbound frame
// into its launch's engine, on whichever goroutine delivered it. It takes
// only engMu and the engine's mutex, neither held across a Send, so it
// never blocks on the sender it may run inside.
func (rt *Runtime) dispatch(m *transport.Message) {
	if fr.Enabled() {
		fr.Record(fr.Event{
			Type: fr.EvFrameRecv, Node: int32(m.To), Peer: int32(m.From),
			Inst: m.Instance, Step: m.Step, Arg: uint64(m.Bits),
		})
	}
	if eng := rt.engine(m.Instance); eng != nil {
		eng.deliver(m)
	}
}

// Decide files a schedule decision that Publish produced in another
// process into its launch's execution, releasing that execution's Need*
// wait. It routes like a frame (see dispatch).
func (rt *Runtime) Decide(d Decision) {
	if eng := rt.engine(d.Launch); eng != nil {
		eng.decide(d)
	}
}

// FailDecisions makes every current and later Need* wait of an execution
// fail with err instead of waiting for a Decide — the decision stream is
// gone.
func (rt *Runtime) FailDecisions(err error) {
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	rt.decErr = err
	for _, eng := range rt.engines {
		eng.failDecisions(err)
	}
}

// engine returns launch's engine. Past launches (aborted or committed
// speculation) have none and yield nil; a launch this process has not
// started yet — possible only across processes, where peers run ahead —
// gets its engine now, which start adopts, unless it lies beyond
// pendingSlack.
func (rt *Runtime) engine(launch uint64) *instanceEngine {
	rt.engMu.RLock()
	eng := rt.engines[launch]
	rt.engMu.RUnlock()
	if eng != nil {
		return eng
	}
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	if eng = rt.engines[launch]; eng == nil && launch > rt.maxLaunch && launch <= rt.maxLaunch+rt.pendingSlack() {
		eng = rt.newEngine(launch)
		rt.engines[launch] = eng
	}
	return eng
}

// sendFrame routes one frame onto its (lazily dialed, shared) link. The
// steady state is a read-locked map hit, so the executions of every
// in-flight instance do not serialize on the link cache; the write lock is
// taken only to dial a link the first time it carries traffic.
func (rt *Runtime) sendFrame(m *transport.Message) error {
	key := [2]graph.NodeID{m.From, m.To}
	rt.linkMu.RLock()
	l, ok := rt.links[key]
	rt.linkMu.RUnlock()
	if !ok {
		rt.linkMu.Lock()
		l, ok = rt.links[key]
		if !ok {
			var err error
			l, err = rt.tr.Dial(m.From, m.To)
			if err != nil {
				rt.linkMu.Unlock()
				return err
			}
			rt.links[key] = l
		}
		rt.linkMu.Unlock()
	}
	if fr.Enabled() {
		fr.Record(fr.Event{
			Type: fr.EvFrameSend, Node: int32(m.From), Peer: int32(m.To),
			Inst: m.Instance, Step: m.Step, Arg: uint64(m.Bits),
		})
	}
	return l.Send(m)
}

// start returns the engine of the next launch, which runs instance k,
// adopting the one an early frame or decision created. Launch numbers only
// grow, so an early engine numbered below it never starts and goes.
func (rt *Runtime) start(launch uint64, k int) *instanceEngine {
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	eng := rt.engines[launch]
	rt.passLaunch(launch)
	if eng == nil {
		eng = rt.newEngine(launch)
	}
	eng.k = k
	rt.engines[launch] = eng
	return eng
}

// passLaunch drops the early engines numbered at or below n, which no
// execution will take, and makes n the newest started launch. engMu must
// be write-held.
func (rt *Runtime) passLaunch(n uint64) {
	for l := range rt.engines {
		if l > rt.maxLaunch && l <= n {
			delete(rt.engines, l)
		}
	}
	rt.maxLaunch = n
}

func (rt *Runtime) unregister(eng *instanceEngine) {
	rt.engMu.Lock()
	delete(rt.engines, eng.launch)
	rt.engMu.Unlock()
}

// flight is one speculative instance execution.
type flight struct {
	k       int
	gen     int
	eng     *instanceEngine
	lv      core.LocalView
	done    chan struct{}
	ir      *core.InstanceResult
	err     error
	started time.Time
}

// Result extends the lockstep RunResult with wall-clock and substrate
// accounting.
type Result struct {
	core.RunResult
	// Wall is the real elapsed time of the pipelined run.
	Wall time.Duration
	// Window is the configured in-flight limit.
	Window int
	// Replays counts instance executions discarded at dispute-control
	// barriers (speculation re-run on a fresh snapshot).
	Replays int
	// LinkBits is the per-link capacity charge of this run (including
	// replayed work), i.e. the transport counters' delta over the run.
	LinkBits map[[2]graph.NodeID]int64
	// Dropped counts emissions that violated physics across the run.
	Dropped int64
}

// InstancesPerSec is the run's wall-clock instance rate.
func (res *Result) InstancesPerSec() float64 {
	if res.Wall <= 0 {
		return 0
	}
	return float64(res.Committed()) / res.Wall.Seconds()
}

// RunStream executes one pipelined instance per submission pulled from
// subs until the channel closes, and returns once every pulled submission
// has committed, in order. Committed outputs are identical to running the
// same inputs on the lockstep core.Runner. With LocalNodes set, the
// result carries only the local nodes' outputs; every process of the
// cluster must feed its stream the same submission sequence.
//
// The scheduler pulls a submission only when the pipeline has a free
// window slot, so a bounded subs channel gives end-to-end backpressure: a
// producer blocks once W instances are in flight and the channel buffer is
// full. commit (when non-nil) is invoked synchronously as each instance
// commits, in order — a commit error aborts the run — and is then the only
// holder of the per-instance reports: the result keeps running aggregates
// and a nil Instances, so an endless stream runs in bounded memory. With a
// nil commit the result retains every report. Canceling ctx aborts
// every in-flight execution (mid-dispute included), returns ctx.Err(), and
// leaves the runtime closeable; the transport stays open, so a later
// RunStream may resume from the folded dispute state.
//
// Determinism caveat: an Adversary whose hooks consume hidden shared
// state sees hook interleavings that depend on the window; its behaviour
// is replayed deterministically only with Window=1. Adversaries
// implementing core.InstanceScoped (e.g. adversary.Random) draw
// per-instance state instead and are deterministic under any window, as
// are stateless adversaries (Crash, BlockFlipper, CodedCorruptor,
// FalseAlarm, flag liars).
func (rt *Runtime) RunStream(ctx context.Context, subs <-chan []byte, commit func(*core.InstanceResult) error) (*Result, error) {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	startBits := rt.tr.LinkBits()

	res := &Result{
		RunResult: core.RunResult{LenBits: rt.proto.LenBits()},
		Window:    rt.cfg.Window,
	}

	// inputs retains every pulled-but-uncommitted submission keyed by its
	// instance number: a dispute barrier aborts speculative executions,
	// which relaunch later from this map on the fresh snapshot.
	inputs := map[int][]byte{}
	inflight := map[int]*flight{}
	launch := func(k int) {
		rt.nextLaunch++
		f := &flight{
			k:       k,
			gen:     rt.ds.Gen(),
			eng:     rt.start(rt.nextLaunch, k),
			done:    make(chan struct{}),
			started: time.Now(),
		}
		mInflight.Inc()
		if fr.Enabled() {
			fr.Record(fr.Event{
				Type: fr.EvLaunch, Node: -1,
				Inst: rt.nextLaunch, K: int32(k), Gen: int32(f.gen),
			})
		}
		f.lv = core.LocalView{Locals: rt.locals, Sched: f.eng}
		inflight[k] = f
		in := inputs[k] // read under the scheduler, not in the goroutine
		plan := rt.proto.Plan(rt.ds)
		go func() {
			defer close(f.done)
			f.ir, f.err = plan.ExecuteLocal(f.eng, f.k, in, &f.lv)
		}()
	}
	finish := func(f *flight) {
		rt.unregister(f.eng)
		res.Dropped += f.eng.Dropped()
		delete(inflight, f.k)
		mInflight.Dec()
	}
	reap := func(f *flight) {
		f.eng.abort()
		<-f.done
		finish(f)
	}
	fail := func(err error) (*Result, error) {
		for _, f := range inflight {
			reap(f)
		}
		return nil, err
	}

	// tail is the newest instance number assigned a submission; open means
	// subs may still yield more.
	tail, open := rt.ds.K(), true
	for next := rt.ds.K() + 1; ; {
		// Fill the window with speculative launches on the live snapshot.
		for next <= tail && next-rt.ds.K() <= rt.cfg.Window {
			if _, ok := inflight[next]; !ok {
				launch(next)
			}
			next++
		}
		if !open && tail == rt.ds.K() {
			break // stream closed and every pulled submission committed
		}
		// Wait for the oldest in-flight instance (commits are strictly in
		// order) while pulling submissions whenever a window slot is free.
		var doneCh chan struct{}
		if f := inflight[rt.ds.K()+1]; f != nil {
			doneCh = f.done
		}
		var subCh <-chan []byte
		if open && tail-rt.ds.K() < rt.cfg.Window {
			subCh = subs
		}
		//nab:ignore lockedblock -- runMu serializes entire runs; a second RunStream is meant to wait out the first, and no other path takes runMu
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case in, ok := <-subCh:
			if !ok {
				open = false
				continue
			}
			if len(in) != rt.cfg.LenBytes {
				return fail(fmt.Errorf("core: instance %d: input is %d bytes, want %d", tail+1, len(in), rt.cfg.LenBytes))
			}
			tail++
			inputs[tail] = in
			continue
		case <-doneCh:
		}
		f := inflight[rt.ds.K()+1]
		finish(f)
		if f.gen != rt.ds.Gen() {
			// Cannot happen: every gen bump is followed by the barrier
			// below, which reaps all speculation before the next wait.
			return fail(fmt.Errorf("runtime: instance %d committed on stale generation %d != %d (scheduler bug)", f.k, f.gen, rt.ds.Gen()))
		}
		if f.err != nil {
			return fail(f.err)
		}
		if err := rt.proto.Fold(rt.ds, f.ir); err != nil {
			return fail(err)
		}
		res.Add(f.ir, commit == nil)
		delete(inputs, f.k)
		mCommitLatency.Observe(time.Since(f.started).Seconds())
		if fr.Enabled() {
			fr.Record(fr.Event{
				Type: fr.EvCommit, Node: -1,
				Inst: f.eng.launch, K: int32(f.k), Gen: int32(f.gen),
				Arg: uint64(f.ir.TotalBits),
			})
		}
		if commit != nil {
			if err := commit(f.ir); err != nil {
				return fail(err)
			}
		}
		if rt.ds.Gen() != f.gen {
			// Dispute-control barrier: the committed instance changed the
			// dispute state, so every speculative execution planned on the
			// old snapshot is stale. Abort them; the fill loop relaunches
			// on the fresh snapshot.
			mBarriers.Inc()
			if fr.Enabled() {
				fr.Record(fr.Event{
					Type: fr.EvBarrierOpen, Node: -1,
					Inst: f.eng.launch, K: int32(f.k), Gen: int32(rt.ds.Gen()),
				})
				fr.Trigger(fr.ReasonDispute)
			}
			for _, fl := range inflight {
				res.Replays++
				mReplays.Inc()
				if fr.Enabled() {
					fr.Record(fr.Event{
						Type: fr.EvReplay, Node: -1,
						Inst: fl.eng.launch, K: int32(fl.k), Gen: int32(fl.gen),
					})
				}
				reap(fl)
			}
			if fr.Enabled() {
				fr.Record(fr.Event{
					Type: fr.EvBarrierClose, Node: -1,
					K: int32(rt.ds.K()), Gen: int32(rt.ds.Gen()),
				})
			}
			// Within a generation instance k always takes the same launch
			// number, but how many instances a process had launched when
			// the barrier fell depends on when its submissions arrived.
			// Skip the numbers of a full window's launches it had no input
			// for yet, so every process relaunches on the same numbers.
			if full := f.k - 1 + rt.cfg.Window; next-1 < full {
				rt.nextLaunch += uint64(full - (next - 1))
			}
			next = rt.ds.K() + 1
		}
	}
	res.Wall = time.Since(start)
	res.LinkBits = rt.tr.LinkBits()
	for key, before := range startBits {
		if after := res.LinkBits[key] - before; after > 0 {
			res.LinkBits[key] = after
		} else {
			delete(res.LinkBits, key)
		}
	}
	return res, nil
}

// syncAdversary serializes an Adversary's hooks so overlapping instances
// cannot race on adversary-internal state.
type syncAdversary struct {
	mu    sync.Mutex
	inner core.Adversary
}

// ForInstance forwards core.InstanceScoped: a per-instance adversary is
// used by one execution at a time, so it gets a wrapper of its own; one
// that answers with itself keeps this wrapper and its mutex.
func (s *syncAdversary) ForInstance(k int) core.Adversary {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc, ok := s.inner.(core.InstanceScoped); ok {
		if derived := sc.ForInstance(k); derived != s.inner {
			return &syncAdversary{inner: derived}
		}
	}
	return s
}

func (s *syncAdversary) CorruptBlock(tree int, to graph.NodeID, block core.BitChunk) core.BitChunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.CorruptBlock(tree, to, block)
}

func (s *syncAdversary) CorruptCoded(to graph.NodeID, symbols []gf.Elem) []gf.Elem {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.CorruptCoded(to, symbols)
}

func (s *syncAdversary) OverrideFlag(honest bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.OverrideFlag(honest)
}

func (s *syncAdversary) CorruptClaims(claims *core.Claims) *core.Claims {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.CorruptClaims(claims)
}

func (s *syncAdversary) SilentIn(phase string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.SilentIn(phase)
}
