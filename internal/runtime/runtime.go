// Package runtime executes NAB concurrently: nodes exchange real step
// frames over an internal/transport substrate, and a pipeline scheduler
// keeps a window of W instances in flight — instance t+1's Phase 1
// overlaps instance t's Phase 2/3, the Appendix D construction made
// operational. Pipelining overlaps instances, not the nodes of one
// instance: each execution runs on one goroutine that steps whichever of
// its hosted nodes has a frame from every in-neighbour, so a runtime holds
// one receive loop per hosted node plus one goroutine per execution in
// flight.
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
	// submission arrived. That keeps frame routing aligned across
	// processes without any coordination traffic.
	LocalNodes []graph.NodeID

	// Plane resolves mid-instance schedule decisions for partial runtimes
	// whose local nodes cannot decode them (see core.ScheduleView).
	// Required when LocalNodes is set and a local node can be excluded
	// from the instance graph.
	Plane SchedulePlane
}

// ExecutionView is one instance execution's core.ScheduleView; Close is
// called (possibly more than once — it must be idempotent) when the
// execution commits or is abandoned at a dispute barrier, and must
// unblock any pending Need* call.
type ExecutionView interface {
	core.ScheduleView
	Close()
}

// SchedulePlane hands out per-execution schedule views, keyed by the
// instance number and the dispute-state generation it executes on (a
// barrier replay of instance k runs on a later generation). Committed is
// called as instance k commits, before the commit callback: no execution
// of an instance at or below k runs until a restore rewinds the runtime,
// so the plane may drop what it holds for them.
type SchedulePlane interface {
	Execution(k, gen int) ExecutionView
	Committed(k int)
}

// Runtime hosts the nodes' receive loops, the links and the scheduler
// for one topology; each instance execution steps its hosted nodes on a
// goroutine of its own.
type Runtime struct {
	cfg    Config
	proto  *core.Protocol
	tr     transport.Transport
	locals map[graph.NodeID]bool // nil = all nodes local
	topo   *topology             // the step topology every launch shares

	linkMu sync.RWMutex
	links  map[[2]graph.NodeID]transport.Link

	engMu   sync.RWMutex
	engines map[uint64]*instanceEngine
	// pending buffers frames for launches not registered yet: peer
	// processes number launches identically but register them at their own
	// pace, so a frame may arrive before the local flight exists. Frames
	// for launches at or below maxLaunch belong to completed or aborted
	// executions and are dropped; so are frames claiming a launch further
	// ahead than any honest peer can run (see pendingSlack), which bounds
	// the buffer against a peer streaming garbage launch numbers.
	pending   map[uint64][]*transport.Message
	maxLaunch uint64

	// Scheduler state: ds is mutated only inside Run (folds are
	// serialized); runMu admits one Run at a time.
	runMu      sync.Mutex
	ds         *core.DisputeState
	nextLaunch uint64

	closeOnce sync.Once
	closeErr  error
}

// New validates cfg, builds the transport (unless supplied) and starts the
// per-node receive loops.
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
		pending: map[uint64][]*transport.Message{},
		ds:      core.NewDisputeState(cfg.Graph),
	}
	for _, v := range rt.topo.nodes {
		if locals == nil || locals[v] {
			go rt.recvLoop(v)
		}
	}
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
	if len(rt.engines) != 0 {
		return fmt.Errorf("runtime: RestoreSnapshot with %d executions in flight", len(rt.engines))
	}
	rt.ds = ds
	rt.nextLaunch = launchBase
	rt.maxLaunch = launchBase
	// The receive loops run from New on, so a booting cluster process can
	// already hold frames a faster peer sent for the launches it is about
	// to start: those stay buffered. Frames at or below launchBase belong
	// to an abandoned epoch and go.
	for launch := range rt.pending {
		if launch <= launchBase || launch > launchBase+rt.pendingSlack() {
			delete(rt.pending, launch)
		}
	}
	return nil
}

// pendingSlack bounds how far beyond the newest local launch a buffered
// frame's launch number may run. An honest peer's scheduler is at most
// one window of speculative launches past the oldest uncommitted
// instance, and it cannot commit (hence advance) an instance before this
// process has launched it too, so the honest gap is under two windows of
// launch numbers; the slack is deliberately generous on top of that.
func (rt *Runtime) pendingSlack() uint64 {
	return uint64(4*rt.cfg.Window + 8)
}

// recvLoop demultiplexes node v's inbound frames to the owning instance
// engines. Frames for past launches (aborted or committed speculation)
// are dropped; frames for launches this process has not started yet —
// possible only across processes, where peers run ahead — are buffered
// until the flight registers, within pendingSlack.
func (rt *Runtime) recvLoop(v graph.NodeID) {
	for {
		m, err := rt.tr.Recv(v)
		if err != nil {
			return
		}
		if fr.Enabled() {
			fr.Record(fr.Event{
				Type: fr.EvFrameRecv, Node: int32(m.To), Peer: int32(m.From),
				Inst: m.Instance, Step: m.Step, Arg: uint64(m.Bits),
			})
		}
		rt.engMu.RLock()
		eng, ok := rt.engines[m.Instance]
		rt.engMu.RUnlock()
		if ok {
			eng.deliver(m)
			continue
		}
		rt.engMu.Lock()
		if eng, ok = rt.engines[m.Instance]; !ok &&
			m.Instance > rt.maxLaunch && m.Instance <= rt.maxLaunch+rt.pendingSlack() {
			rt.pending[m.Instance] = append(rt.pending[m.Instance], m)
		}
		rt.engMu.Unlock()
		if ok {
			eng.deliver(m)
		}
	}
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

func (rt *Runtime) register(eng *instanceEngine) {
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	rt.engines[eng.launch] = eng
	if eng.launch > rt.maxLaunch {
		rt.maxLaunch = eng.launch
	}
	// Frames are keyed by step, so buffered and direct deliveries may
	// interleave in any order; draining under engMu only keeps the
	// buffer's handoff to the engine atomic.
	for _, m := range rt.pending[eng.launch] {
		eng.deliver(m)
	}
	delete(rt.pending, eng.launch)
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
	view    ExecutionView // nil without a schedule plane
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
// implementing core.InstanceScoped (e.g. adversary.Random with a Seed and
// nil RNG) draw per-instance state instead and are deterministic under
// any window, as are stateless adversaries (Crash, BlockFlipper,
// CodedCorruptor, FalseAlarm, flag liars).
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
			eng:     newInstanceEngine(rt.nextLaunch, rt.topo, rt.sendFrame, rt.locals),
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
		if rt.cfg.Plane != nil {
			f.view = rt.cfg.Plane.Execution(f.k, f.gen)
		}
		var lv *core.LocalView
		if rt.locals != nil || f.view != nil {
			lv = &core.LocalView{Locals: rt.locals, Sched: f.view}
		}
		inflight[k] = f
		rt.register(f.eng)
		in := inputs[k] // read under the scheduler, not in the goroutine
		plan := rt.proto.Plan(rt.ds)
		go func() {
			defer close(f.done)
			f.ir, f.err = plan.ExecuteLocal(f.eng, f.k, in, lv)
		}()
	}
	finish := func(f *flight) {
		rt.unregister(f.eng)
		if f.view != nil {
			f.view.Close()
		}
		res.Dropped += f.eng.Dropped()
		delete(inflight, f.k)
		mInflight.Dec()
	}
	reap := func(f *flight) {
		f.eng.abort()
		if f.view != nil {
			f.view.Close() // unblock a Need* wait between phases
		}
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
		if rt.cfg.Plane != nil {
			rt.cfg.Plane.Committed(f.k)
		}
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

// ForInstance forwards core.InstanceScoped: a genuinely per-instance
// adversary is used by one execution at a time, so it gets a wrapper of
// its own. An adversary that answers ForInstance with itself (the legacy
// shared-stream form) must keep THIS wrapper — a fresh one would hand
// overlapping instances distinct mutexes around shared state.
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
