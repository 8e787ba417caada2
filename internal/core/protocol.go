package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"nab/internal/bb"
	"nab/internal/capacity"
	"nab/internal/coding"
	"nab/internal/dispute"
	"nab/internal/flight"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/relay"
	"nab/internal/sim"
	"nab/internal/spantree"
)

// PhaseEngine abstracts the substrate a NAB instance executes on. The
// lockstep sim.Engine satisfies it directly; internal/runtime provides a
// message-driven implementation that steps each node when its step
// frames have arrived instead of in global rounds. The two differ only in
// who calls a node's sim.Process.Step, and when: both call it from the
// goroutine running RunPhase. Both must preserve the synchronous-model
// semantics of sim.Engine.RunPhase: messages emitted in round r are
// delivered in round r+1, inboxes are ordered by sender, messages emitted
// in a phase's final round carry over into the next phase's first round,
// and every transmitted bit is charged to its link through
// sim.PhaseStats.Charge. Run on a plan from Protocol.Plan, every engine
// therefore reports the same InstanceResult, model quantities included.
type PhaseEngine interface {
	SetProcess(v graph.NodeID, p sim.Process) error
	RunPhase(name string, rounds int) (*sim.PhaseStats, error)
}

var _ PhaseEngine = (*sim.Engine)(nil)

// maxSchemeTries bounds coding-matrix redraws per generation's plan:
// Theorem 1 makes one draw succeed w.h.p., tiny fields may need more.
const maxSchemeTries = 64

// Protocol is a validated NAB configuration plus the instance-independent
// precomputation (relay table). The Protocol itself is immutable after
// construction and safe for concurrent use, so one Protocol can drive many
// concurrent instances. The per-generation precomputation is not part of
// it: Plan caches that on the DisputeState it is planned from, and a plan
// builds once however many executions share it.
type Protocol struct {
	cfg      Config
	n        int
	lenBits  int
	relayTab *relay.Table
}

// NewProtocol validates cfg and precomputes the relay substrate.
func NewProtocol(cfg Config) (*Protocol, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	n := cfg.Graph.NumNodes()
	if cfg.F < 0 || n < 3*cfg.F+1 {
		return nil, fmt.Errorf("core: n = %d must be >= 3f+1 = %d", n, 3*cfg.F+1)
	}
	if !cfg.Graph.HasNode(cfg.Source) {
		return nil, fmt.Errorf("core: source %d not in graph", cfg.Source)
	}
	if cfg.LenBytes <= 0 {
		return nil, fmt.Errorf("core: LenBytes = %d must be positive", cfg.LenBytes)
	}
	if len(cfg.Adversaries) > cfg.F {
		return nil, fmt.Errorf("core: %d adversaries exceed fault bound f = %d", len(cfg.Adversaries), cfg.F)
	}
	// A relay table with 2f+1 node-disjoint paths for every ordered pair
	// is itself the proof that the vertex connectivity is at least 2f+1,
	// so the paper's precondition costs no second round of max-flows on a
	// graph that meets it. Only when the table cannot be built (or there
	// is no pair to build it for) is the connectivity computed, to name
	// the failure as what it is.
	tab, err := relay.NewTable(cfg.Graph, 2*cfg.F+1)
	if err != nil || n < 2 {
		conn, cerr := cfg.Graph.VertexConnectivity()
		if cerr != nil {
			return nil, fmt.Errorf("core: connectivity: %w", cerr)
		}
		if conn < 2*cfg.F+1 {
			return nil, fmt.Errorf("core: connectivity %d < 2f+1 = %d", conn, 2*cfg.F+1)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: relay table: %w", err)
	}
	return &Protocol{cfg: cfg, n: n, lenBits: 8 * cfg.LenBytes, relayTab: tab}, nil
}

// Config returns a copy of the validated configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Graph returns the physical topology G (shared, read-only).
func (p *Protocol) Graph() *graph.Directed { return p.cfg.Graph }

// LenBits returns the per-instance input size in bits.
func (p *Protocol) LenBits() int { return p.lenBits }

// honestNodes lists the fault-free nodes (known to the harness, not the
// protocol).
func (p *Protocol) honestNodes() []graph.NodeID {
	var out []graph.NodeID
	for _, v := range p.cfg.Graph.Nodes() {
		if _, bad := p.cfg.Adversaries[v]; !bad {
			out = append(out, v)
		}
	}
	return out
}

func (p *Protocol) adversaryFor(v graph.NodeID) Adversary {
	if a, bad := p.cfg.Adversaries[v]; bad {
		return a
	}
	return Honest{}
}

// DisputeState is the cross-instance protocol state NAB carries between
// instances: the accumulated dispute set, the diminished instance graph
// G_k, the nodes proven faulty so far, and the watermark k of the last
// instance folded in. Gen increments on every change, so speculative
// executors can detect stale snapshots. A DisputeState belongs to one
// goroutine at a time: Fold and Plan both write it.
type DisputeState struct {
	disputes    *dispute.Set
	gk          *graph.Directed
	faultySoFar map[graph.NodeID]bool
	gen         int
	k           int
	// plan is the plan cache: the plan of this state's generation, made by
	// Protocol.Plan and dropped by the fold that moves G_k. It belongs to
	// this state alone, so a restored state, even one at the same
	// generation number, never reuses a plan made for another G_k.
	plan *InstancePlan
}

// NewDisputeState returns the instance-1 state: no disputes, G_1 = G.
func NewDisputeState(g *graph.Directed) *DisputeState {
	return &DisputeState{
		disputes:    dispute.NewSet(),
		gk:          g.Clone(),
		faultySoFar: map[graph.NodeID]bool{},
	}
}

// clone snapshots the state without its plan: a plan builds from the
// snapshot while the live state keeps folding.
func (ds *DisputeState) clone() *DisputeState {
	faulty := make(map[graph.NodeID]bool, len(ds.faultySoFar))
	for v, b := range ds.faultySoFar {
		faulty[v] = b
	}
	return &DisputeState{
		disputes:    ds.disputes.Clone(),
		gk:          ds.gk.Clone(),
		faultySoFar: faulty,
		gen:         ds.gen,
		k:           ds.k,
	}
}

// Graph returns a copy of the current instance graph G_k.
func (ds *DisputeState) Graph() *graph.Directed { return ds.gk.Clone() }

// Disputes returns a copy of the accumulated dispute set.
func (ds *DisputeState) Disputes() *dispute.Set { return ds.disputes.Clone() }

// Gen returns the state generation, bumped by every Fold that changed the
// dispute state.
func (ds *DisputeState) Gen() int { return ds.gen }

// K returns the watermark: the last instance folded into the state.
func (ds *DisputeState) K() int { return ds.k }

// InstancePlan is the instance-independent part of preparing a NAB
// instance on one dispute-state snapshot: instance parameters (gamma, rho,
// symbol layout), the verified coding scheme, and the packed arborescences.
// A plan is immutable once built and may be executed concurrently by every
// instance that runs on the same snapshot.
type InstancePlan struct {
	p *Protocol
	// from is the snapshot a cached plan builds from on its first
	// execution, under once; nil for a plan PlanInstance built eagerly.
	from *DisputeState
	once sync.Once
	err  error
	planBody
}

// planBody is what building a plan computes.
type planBody struct {
	gk *graph.Directed

	sourceGone bool
	excluded   int
	tolerance  int
	phase1Only bool

	gamma       int64
	rho         int
	symBits     uint
	stripes     int
	scheme      *coding.Scheme
	trees       []*spantree.Arborescence
	adj         map[graph.NodeID]*nodeAdj
	schemeTries int
	maxDepth    int
}

// Plan returns the plan for ds's generation: the one every instance of the
// generation runs on, in every engine. The lockstep Runner and the
// pipelined runtime both take it once per launch, so the coding scheme and
// the arborescences are built once per generation — at most f(f+1)+1
// times in a run — and both engines run the same verified scheme and
// charge the same bits.
//
// A miss only records the state the plan is for, which is cheap; the
// build runs on the plan's first Execute or ExecuteLocal, off the caller's
// goroutine in the runtime, and that call returns any build error. The
// build draws coding matrices from an RNG seeded by the generation
// (planSeed), so a restored or replayed state plans the scheme an
// uninterrupted run would. ds must not be folded concurrently with Plan.
func (p *Protocol) Plan(ds *DisputeState) *InstancePlan {
	if pl := ds.plan; pl != nil && pl.p == p {
		return pl
	}
	ds.plan = &InstancePlan{p: p, from: ds.clone()}
	return ds.plan
}

// build builds a cached plan on its first use, recording the build as
// instance k's plan phase; later calls wait for it and share its outcome.
func (pl *InstancePlan) build(k int) error {
	pl.once.Do(func() {
		ds := pl.from
		if ds == nil {
			return // built eagerly by PlanInstance
		}
		recordPhase(k, flight.PhasePlan)
		built, err := pl.p.PlanInstance(ds, k, rand.New(rand.NewSource(planSeed(pl.p.cfg.Seed, ds.gen))))
		if err != nil {
			pl.err = err
			return
		}
		pl.planBody = built.planBody
	})
	return pl.err
}

// planSeed derives a per-generation RNG seed (splitmix64 finalizer), so a
// re-executed instance draws the same verified scheme regardless of which
// launch planned it first.
func planSeed(seed int64, gen int) int64 {
	z := uint64(seed) + uint64(gen+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// PlanInstance builds the plan for instance k on the given dispute-state
// snapshot now, drawing coding matrices from rng, and caches nothing; Plan
// is the cached form every engine uses. k is used in error messages only.
func (p *Protocol) PlanInstance(ds *DisputeState, k int, rng *rand.Rand) (*InstancePlan, error) {
	pl := &InstancePlan{p: p, planBody: planBody{gk: ds.gk.Clone()}}

	// Source already proven faulty: agree on the default value, no traffic.
	if !pl.gk.HasNode(p.cfg.Source) {
		pl.sourceGone = true
		return pl, nil
	}

	pl.excluded = p.n - pl.gk.NumNodes()
	pl.tolerance = p.cfg.F - pl.excluded
	if pl.tolerance < 0 {
		pl.tolerance = 0
	}
	pl.phase1Only = pl.excluded >= p.cfg.F

	gamma, err := capacity.Gamma(pl.gk, p.cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: gamma: %w", k, err)
	}
	pl.gamma = gamma
	omega := dispute.Omega(pl.gk, ds.disputes, p.n-p.cfg.F)
	rho, err := capacity.Rho(omega)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: rho: %w", k, err)
	}
	pl.rho = rho
	// The paper's symbols have L/rho bits. We realize wide symbols as
	// `stripes` machine words over GF(2^symBits), symBits <= 64: the
	// per-bit time cost stays L/rho (up to rounding) and any differing
	// stripe is caught by the per-stripe check.
	symBits := uint((p.lenBits + rho - 1) / rho)
	if symBits > 64 {
		symBits = 64
	}
	stripes := (p.lenBits + rho*int(symBits) - 1) / (rho * int(symBits))
	if stripes < 1 {
		stripes = 1
	}
	pl.symBits = symBits
	pl.stripes = stripes
	field, err := gf.New(symBits)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: field: %w", k, err)
	}
	pl.scheme, pl.schemeTries, err = coding.GenerateVerified(pl.gk, rho, field, omega, rng, maxSchemeTries)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: scheme: %w", k, err)
	}
	pl.trees, err = spantree.PackArborescences(pl.gk, p.cfg.Source, int(gamma))
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: trees: %w", k, err)
	}
	for _, tr := range pl.trees {
		if d := tr.Depth(); d > pl.maxDepth {
			pl.maxDepth = d
		}
	}
	pl.adj = planAdjacency(pl.gk, pl.trees)
	return pl, nil
}

// ScheduleView supplies or records the two mid-instance schedule decisions
// of one instance execution: whether Phase 3 runs (the agreed MISMATCH
// bit) and the dispute-control audit findings. A partial execution whose
// local nodes all sit outside V_k cannot derive them from its own
// broadcast decodes, yet must still follow the agreed schedule (relays
// participate in Phase 3, and every process folds the same dispute
// deltas); the view is its window onto the rest of the cluster.
//
// Decided* is invoked when the execution derived the decision locally —
// a coordinator's view broadcasts it to the processes that asked.
// Need* is invoked when it could not; the call may block until the
// decision arrives (and should fail rather than block forever once the
// execution is abandoned).
type ScheduleView interface {
	DecidedMismatch(mismatch bool) error
	NeedMismatch() (bool, error)
	DecidedAudit(a *AuditResult) error
	NeedAudit() (*AuditResult, error)
}

// LocalView restricts an instance execution to the nodes one process
// hosts. The nil view (or a nil Locals set) is the classic single-process
// execution: every node is local and no ScheduleView is consulted.
type LocalView struct {
	// Locals are the nodes this process steps. Remote nodes' processes
	// are never constructed and never given to the engine — their
	// traffic arrives over the transport from the peers hosting them.
	Locals map[graph.NodeID]bool
	// Sched resolves mid-instance schedule decisions no local node can
	// decode. Required only for partial executions that may host
	// excluded-from-V_k nodes.
	Sched ScheduleView
}

// local reports whether node v is hosted by this execution.
func (lv *LocalView) local(v graph.NodeID) bool {
	return lv == nil || lv.Locals == nil || lv.Locals[v]
}

// partial reports whether the execution hosts a strict subset of nodes.
func (lv *LocalView) partial() bool { return lv != nil && lv.Locals != nil }

func (lv *LocalView) sched() ScheduleView {
	if lv == nil {
		return nil
	}
	return lv.Sched
}

// Execute runs instance k broadcasting input on the given engine. It does
// not touch cross-instance state; fold the result with Protocol.Fold.
func (pl *InstancePlan) Execute(engine PhaseEngine, k int, input []byte) (*InstanceResult, error) {
	return pl.ExecuteLocal(engine, k, input, nil)
}

// ExecuteLocal runs instance k's protocol for the nodes in view only —
// the distributed deployment's per-process execution. Every process of a
// cluster calls ExecuteLocal with the same plan and input but its own
// Locals set; the union of their behaviours over a shared transport is
// exactly one Execute, and each InstanceResult carries the outputs of the
// local fault-free nodes plus the (cluster-agreed) mismatch bit and
// dispute findings, so every process can Fold identically. A nil view
// executes every node (identical to Execute).
func (pl *InstancePlan) ExecuteLocal(engine PhaseEngine, k int, input []byte, view *LocalView) (*InstanceResult, error) {
	if err := pl.build(k); err != nil {
		return nil, err
	}
	p := pl.p
	ir := &InstanceResult{K: k, Outputs: map[graph.NodeID][]byte{}}
	if len(input) != p.cfg.LenBytes {
		return nil, fmt.Errorf("core: instance %d: input is %d bytes, want %d", k, len(input), p.cfg.LenBytes)
	}

	if pl.sourceGone {
		def := make([]byte, p.cfg.LenBytes)
		for _, v := range p.honestNodes() {
			if view.local(v) {
				ir.Outputs[v] = def
			}
		}
		return ir, nil
	}

	ir.ExcludedNodes = pl.excluded
	ir.Phase1Only = pl.phase1Only
	ir.Gamma = pl.gamma
	ir.Rho = pl.rho
	ir.SymBits = pl.symBits
	ir.Stripes = pl.stripes
	ir.SchemeTries = pl.schemeTries

	// Node states over the physical graph G; nodes outside V_k participate
	// only as relays. Only local nodes get state: remote nodes run in the
	// processes hosting them; ordered lists the states in node order.
	states := map[graph.NodeID]*nodeState{}
	participants := pl.gk.Nodes()
	var ordered []*nodeState
	for _, v := range participants {
		if !view.local(v) {
			continue
		}
		adv := p.adversaryFor(v)
		if sc, ok := adv.(InstanceScoped); ok {
			adv = sc.ForInstance(k)
		}
		st := newNodeState(v, adv, p.cfg.Source, input, p.lenBits, pl.rho, pl.symBits, pl.stripes, pl.trees, pl.scheme, pl.adj[v])
		states[v] = st
		ordered = append(ordered, st)
	}

	// ---- Phase 1: unreliable broadcast over the packed arborescences.
	if err := p.setProcesses(engine, states, view, (*nodeState).phase1Process); err != nil {
		return nil, err
	}
	recordPhase(k, flight.Phase1)
	p1, err := engine.RunPhase("phase1", pl.maxDepth+1)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: phase 1: %w", k, err)
	}
	ir.Phase1Time = p1.CutThroughTime()
	ir.Phase1SFTime = p1.StoreForwardTime()
	ir.Phase1Rounds = pl.maxDepth
	for _, st := range ordered {
		if err := st.finishPhase1(); err != nil {
			return nil, err
		}
	}

	if pl.phase1Only {
		// All remaining nodes are fault-free: Phase 1 output is final.
		for _, v := range p.honestNodes() {
			if view.local(v) {
				ir.Outputs[v] = states[v].value
			}
		}
		ir.TotalBits = p1.TotalBits()
		return ir, nil
	}

	// ---- Phase 2, step 2.1: equality check. Co-hosted nodes of equal
	// value share one packed X, and each G_k edge between them is encoded
	// once: by its sender, for the receiver too.
	if err := packValues(ordered); err != nil {
		return nil, err
	}
	if len(ordered) > 1 {
		coded := make([]codedEdge, pl.gk.NumEdges())
		for _, st := range ordered {
			st.coded = coded
		}
	}
	if err := p.setProcesses(engine, states, view, (*nodeState).equalityProcess); err != nil {
		return nil, err
	}
	recordPhase(k, flight.PhaseEquality)
	eq, err := engine.RunPhase("equality", 2)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: equality: %w", k, err)
	}
	ir.EqualityTime = eq.CutThroughTime()

	// ---- Phase 2, step 2.2: agree on every node's 1-bit flag.
	recordPhase(k, flight.PhaseFlags)
	flagNodes, err := p.runBroadcast(engine, states, participants, pl.tolerance, func(st *nodeState) []byte {
		if st.announcedFlag() {
			return []byte{1}
		}
		return []byte{0}
	}, "flags", view)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: flags: %w", k, err)
	}
	fl := flagNodes.stats
	ir.FlagTime = fl.CutThroughTime()

	// Decode agreed flags per local honest node and check agreement.
	honest := p.honestNodes()
	decodeFlags := func(nd *bb.Node) map[graph.NodeID]bool {
		local := map[graph.NodeID]bool{}
		for _, q := range participants {
			dec := nd.Decide(q)
			local[q] = len(dec) == 1 && dec[0] == 1
		}
		return local
	}
	agreedFlags := map[graph.NodeID]bool{}
	haveFlags := false
	for _, v := range honest {
		if !view.local(v) {
			continue
		}
		nd := flagNodes.nodes[v]
		if nd == nil {
			continue
		}
		local := decodeFlags(nd)
		if !haveFlags {
			agreedFlags = local
			haveFlags = true
			continue
		}
		for q, f := range local {
			if agreedFlags[q] != f {
				return nil, fmt.Errorf("core: instance %d: flag agreement violated at node %d for general %d", k, v, q)
			}
		}
	}
	if !haveFlags && view.partial() {
		// No local honest participant; a local faulty node's passive decode
		// still tracks the agreed schedule (the host process is untrusted
		// only to the extent its node already is).
		for _, q := range participants {
			if nd := flagNodes.nodes[q]; nd != nil {
				agreedFlags = decodeFlags(nd)
				haveFlags = true
				break
			}
		}
	}
	switch {
	case haveFlags:
		for _, q := range participants {
			if agreedFlags[q] {
				ir.Mismatch = true
			}
		}
		if s := view.sched(); s != nil {
			if err := s.DecidedMismatch(ir.Mismatch); err != nil {
				return nil, fmt.Errorf("core: instance %d: publish mismatch: %w", k, err)
			}
		}
	case view.partial():
		// Every local node sits outside V_k (relay duty only): the agreed
		// schedule must come from a peer that decoded it.
		s := view.sched()
		if s == nil {
			return nil, fmt.Errorf("core: instance %d: no local participant decoded the flag agreement and no schedule view is configured", k)
		}
		mm, err := s.NeedMismatch()
		if err != nil {
			return nil, fmt.Errorf("core: instance %d: await mismatch: %w", k, err)
		}
		ir.Mismatch = mm
	}

	if !ir.Mismatch {
		for _, v := range honest {
			if view.local(v) {
				ir.Outputs[v] = states[v].value
			}
		}
		ir.TotalBits = p1.TotalBits() + eq.TotalBits() + fl.TotalBits()
		return ir, nil
	}

	// ---- Phase 3: dispute control.
	ir.Phase3 = true
	recordPhase(k, flight.PhaseClaims)
	claimNodes, err := p.runBroadcast(engine, states, participants, pl.tolerance, func(st *nodeState) []byte {
		c := st.buildClaims()
		if c == nil {
			return nil
		}
		return c.Marshal()
	}, "claims", view)
	if err != nil {
		return nil, fmt.Errorf("core: instance %d: claims: %w", k, err)
	}
	dc := claimNodes.stats
	ir.DisputeTime = dc.CutThroughTime()

	ac := pl.auditContext()
	decide := func(nd *bb.Node) [][]byte {
		raw := make([][]byte, len(participants))
		for i, q := range participants {
			raw[i] = nd.Decide(q)
		}
		return raw
	}
	audit := func(raw [][]byte) *AuditResult {
		claims := make(map[graph.NodeID]*Claims, len(participants))
		for i, q := range participants {
			c := DecodeClaims(raw[i])
			if c != nil && c.Node != q {
				c = nil // claiming to be someone else: discard
			}
			if c != nil {
				c.Flag = agreedFlags[q] // the announced flag is the agreed one
			}
			claims[q] = c
		}
		return ac.Audit(claims)
	}
	var auditors []graph.NodeID
	var decided [][][]byte
	for _, v := range honest {
		if nd := claimNodes.nodes[v]; nd != nil && view.local(v) {
			auditors = append(auditors, v)
			decided = append(decided, decide(nd))
		}
	}
	results, err := agreeAudit(k, auditors, decided, audit)
	if err != nil {
		return nil, err
	}
	var agreed *AuditResult
	for i, v := range auditors {
		ir.Outputs[v] = results[i].Output
	}
	if len(results) > 0 {
		agreed = results[0]
	}
	if agreed == nil && view.partial() {
		// Fall back to a local faulty node's passive decode for the fold.
		for _, q := range participants {
			if nd := claimNodes.nodes[q]; nd != nil {
				agreed = audit(decide(nd))
				break
			}
		}
	}
	switch {
	case agreed != nil:
		if s := view.sched(); s != nil {
			if err := s.DecidedAudit(agreed); err != nil {
				return nil, fmt.Errorf("core: instance %d: publish audit: %w", k, err)
			}
		}
	case view.partial():
		s := view.sched()
		if s == nil {
			return nil, fmt.Errorf("core: instance %d: no local participant decoded the claims and no schedule view is configured", k)
		}
		agreed, err = s.NeedAudit()
		if err != nil {
			return nil, fmt.Errorf("core: instance %d: await audit: %w", k, err)
		}
	default:
		return nil, fmt.Errorf("core: instance %d: no honest nodes to audit", k)
	}
	ir.NewDisputes = agreed.Disputes
	ir.NewFaulty = agreed.Faulty

	ir.TotalBits = p1.TotalBits() + eq.TotalBits() + fl.TotalBits() + dc.TotalBits()
	return ir, nil
}

// setProcesses gives every local node of G its process for the next
// phase: proc of its state for a node in V_k, sim.Silent for one outside
// it, which only relays.
func (p *Protocol) setProcesses(engine PhaseEngine, states map[graph.NodeID]*nodeState, view *LocalView, proc func(*nodeState) sim.Process) error {
	for _, v := range p.cfg.Graph.Nodes() {
		if !view.local(v) {
			continue
		}
		pr := sim.Silent
		if st, inVk := states[v]; inVk {
			pr = proc(st)
		}
		if err := engine.SetProcess(v, pr); err != nil {
			return err
		}
	}
	return nil
}

// Fold applies instance ir to the cross-instance state: ir.K must be the
// next instance after the watermark, and a Phase 3 result diminishes G_k
// and bumps the generation. It is the one fold rule — every engine, the
// session log's snapshot mirror and a cluster's snapshot server fold
// through it — so states folded anywhere from any restore base agree.
func (p *Protocol) Fold(ds *DisputeState, ir *InstanceResult) error {
	if ir.K != ds.k+1 {
		return fmt.Errorf("core: fold of instance %d at watermark %d", ir.K, ds.k)
	}
	ds.k = ir.K
	if !ir.Phase3 {
		return nil
	}
	progress, err := p.merge(ds, ir.NewDisputes, ir.NewFaulty)
	if err != nil {
		return fmt.Errorf("core: instance %d: %w", ir.K, err)
	}
	if !progress {
		return fmt.Errorf("core: instance %d: dispute control made no progress (bug: paper guarantees a new dispute or faulty node)", ir.K)
	}
	ds.gen++
	return nil
}

// merge adds dispute pairs and proven-faulty nodes to ds and reports
// progress: whether the ledger grew — a new pair or a newly proven-faulty
// node (re-marking a faulty node adds no pair). On progress it diminishes
// G_k to match.
func (p *Protocol) merge(ds *DisputeState, disputes [][2]graph.NodeID, faulty []graph.NodeID) (progress bool, err error) {
	before := ds.disputes.Len() + len(ds.faultySoFar)
	for _, pair := range disputes {
		if err := ds.disputes.Add(pair[0], pair[1]); err != nil {
			return false, err
		}
	}
	for _, v := range faulty {
		ds.faultySoFar[v] = true
		if err := ds.disputes.MarkFaulty(p.cfg.Graph, v); err != nil {
			return false, err
		}
	}
	if ds.disputes.Len()+len(ds.faultySoFar) == before {
		return false, nil
	}
	next, _, err := ds.disputes.Apply(p.cfg.Graph, p.cfg.F)
	if err != nil {
		return false, fmt.Errorf("diminishing graph: %w", err)
	}
	ds.gk = next
	ds.plan = nil
	return true, nil
}

// broadcastResult couples the per-node EIG states with the phase stats.
type broadcastResult struct {
	nodes map[graph.NodeID]*bb.Node
	stats *sim.PhaseStats
}

// muted wraps a sim.Process so it consumes its inbox but emits nothing —
// the passive decoder a partial execution uses for silent local nodes, so
// the host process still learns the agreed outcome without touching the
// wire. Wire traffic and capacity charges are identical to sim.Silent.
func muted(p sim.Process) sim.Process {
	return sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
		p.Step(round, inbox)
		return nil
	})
}

// runBroadcast runs one simultaneous classic-BB round (flags or claims)
// among participants, with non-participants relaying. Only the view's
// local nodes are driven; the round count is derived from the relay table
// so relay-only processes agree on it without constructing a BB node.
func (p *Protocol) runBroadcast(engine PhaseEngine, states map[graph.NodeID]*nodeState, participants []graph.NodeID, tolerance int, valueOf func(*nodeState) []byte, phase string, view *LocalView) (*broadcastResult, error) {
	nodes := map[graph.NodeID]*bb.Node{}
	rounds := (tolerance+1)*p.relayTab.Rounds() + 1
	for _, v := range p.cfg.Graph.Nodes() {
		if !view.local(v) {
			continue
		}
		st, inVk := states[v]
		router := relay.NewRouter(v, p.relayTab)
		if !inVk {
			// Relay-only duty.
			if err := engine.SetProcess(v, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
				return router.HandleAll(inbox)
			})); err != nil {
				return nil, err
			}
			continue
		}
		if st.adv.SilentIn(phase) {
			if !view.partial() {
				if err := engine.SetProcess(v, sim.Silent); err != nil {
					return nil, err
				}
				continue
			}
			// Partial execution: decode passively (valueOf — and its
			// adversary hooks — is not consulted, matching the lockstep
			// hook sequence for silent nodes).
			nd, err := bb.NewNode(v, participants, tolerance, router, nil)
			if err != nil {
				return nil, err
			}
			nodes[v] = nd
			if err := engine.SetProcess(v, muted(nd)); err != nil {
				return nil, err
			}
			continue
		}
		nd, err := bb.NewNode(v, participants, tolerance, router, valueOf(st))
		if err != nil {
			return nil, err
		}
		if nd.Rounds() != rounds {
			return nil, fmt.Errorf("core: %s rounds mismatch: node %d wants %d, schedule says %d (bug)", phase, v, nd.Rounds(), rounds)
		}
		nodes[v] = nd
		if err := engine.SetProcess(v, nd); err != nil {
			return nil, err
		}
	}
	stats, err := engine.RunPhase(phase, rounds)
	if err != nil {
		return nil, err
	}
	for _, nd := range nodes {
		nd.Finish()
	}
	return &broadcastResult{nodes: nodes, stats: stats}, nil
}

// agreeAudit audits the claims every local fault-free node decided and
// checks that their findings agree; decided[i] holds nodes[i]'s decision
// for each participant. Audit is a pure function of those bytes, so a node
// whose decisions equal the first node's shares its result, and only a
// node that decided other bytes is audited again, which must reach the
// same findings.
func agreeAudit(k int, nodes []graph.NodeID, decided [][][]byte, audit func([][]byte) *AuditResult) ([]*AuditResult, error) {
	results := make([]*AuditResult, len(decided))
	for i, raw := range decided {
		if i > 0 && slices.EqualFunc(raw, decided[0], bytes.Equal) {
			results[i] = results[0]
			continue
		}
		results[i] = audit(raw)
		if i > 0 && !auditEqual(results[0], results[i]) {
			return nil, fmt.Errorf("core: instance %d: audit divergence at node %d (bug)", k, nodes[i])
		}
	}
	return results, nil
}

func auditEqual(a, b *AuditResult) bool {
	if !bytes.Equal(a.Output, b.Output) {
		return false
	}
	if len(a.Disputes) != len(b.Disputes) || len(a.Faulty) != len(b.Faulty) {
		return false
	}
	for i := range a.Disputes {
		if a.Disputes[i] != b.Disputes[i] {
			return false
		}
	}
	for i := range a.Faulty {
		if a.Faulty[i] != b.Faulty[i] {
			return false
		}
	}
	return true
}
