package core

import (
	"fmt"

	"nab/internal/bb"
	"nab/internal/coding"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/sim"
)

// PlanSeed is the plan cache's seeding rule.
func PlanSeed(seed int64, gen int) int64 { return planSeed(seed, gen) }

// PlanFields is a built plan's content, one comparable field per plan
// quantity: G_k, the instance parameters, every edge matrix and every
// arborescence.
type PlanFields struct {
	Graph      string
	SourceGone bool
	Excluded   int
	Tolerance  int
	Phase1Only bool
	Gamma      int64
	Rho        int
	SymBits    uint
	Stripes    int
	Tries      int
	MaxDepth   int
	Matrices   map[graph.Edge]string
	Trees      [][]graph.Edge
}

// Fields builds pl, as instance k's first execution would, and returns
// its content.
func (pl *InstancePlan) Fields(k int) (PlanFields, error) {
	if err := pl.build(k); err != nil {
		return PlanFields{}, err
	}
	f := PlanFields{
		Graph: pl.gk.Marshal(), SourceGone: pl.sourceGone, Excluded: pl.excluded,
		Tolerance: pl.tolerance, Phase1Only: pl.phase1Only, Gamma: pl.gamma, Rho: pl.rho,
		SymBits: pl.symBits, Stripes: pl.stripes, Tries: pl.schemeTries, MaxDepth: pl.maxDepth,
	}
	if pl.scheme != nil {
		f.Matrices = map[graph.Edge]string{}
		for _, e := range pl.gk.Edges() {
			m := pl.scheme.EdgeMatrix(e.From, e.To)
			if m == nil {
				return f, fmt.Errorf("no coding matrix on edge %v", e)
			}
			f.Matrices[e] = m.String()
		}
	}
	for _, tr := range pl.trees {
		f.Trees = append(f.Trees, tr.Edges())
	}
	return f, nil
}

// Audit runs the dispute-control audit of instances planned by pl on
// claims, as ExecuteLocal does once the transcripts are agreed.
func (pl *InstancePlan) Audit(claims map[graph.NodeID]*Claims) *AuditResult {
	return pl.auditContext().Audit(claims)
}

// Phase3Run is one instance that ran dispute control: its plan, its
// result, and the encoded transcript the claims broadcast agreed on for
// every participant (nil for one that stayed silent).
type Phase3Run struct {
	Plan   *InstancePlan
	Result *InstanceResult
	Raw    map[graph.NodeID][]byte
}

// Phase3Runs runs one instance per input on the lockstep engine, folding
// each, and returns the instances that ran Phase 3.
func Phase3Runs(cfg Config, inputs [][]byte) ([]Phase3Run, error) {
	var runs []Phase3Run
	err := runFolded(cfg, inputs, func() *claimsTap {
		return &claimsTap{Engine: sim.New(cfg.Graph)}
	}, func(pl *InstancePlan, tap *claimsTap, ir *InstanceResult) {
		if !ir.Phase3 {
			return
		}
		nd := tap.claims[pl.p.honestNodes()[0]]
		raw := map[graph.NodeID][]byte{}
		for _, q := range pl.gk.Nodes() {
			raw[q] = nd.Decide(q)
		}
		runs = append(runs, Phase3Run{Plan: pl, Result: ir, Raw: raw})
	})
	return runs, err
}

// runFolded runs one instance per input, each on a fresh engine from
// newEngine, folding each into one dispute state, and hands every
// instance's plan, engine and result to visit.
func runFolded[E PhaseEngine](cfg Config, inputs [][]byte, newEngine func() E, visit func(*InstancePlan, E, *InstanceResult)) error {
	p, err := NewProtocol(cfg)
	if err != nil {
		return err
	}
	ds := NewDisputeState(cfg.Graph)
	for i, in := range inputs {
		k := i + 1
		pl := p.Plan(ds)
		e := newEngine()
		ir, err := pl.Execute(e, k, in)
		if err != nil {
			return err
		}
		if err := p.Fold(ds, ir); err != nil {
			return err
		}
		visit(pl, e, ir)
	}
	return nil
}

// claimsTap is a lockstep engine that keeps the EIG nodes of the claims
// broadcast, whose decisions are the transcripts the audit reads.
type claimsTap struct {
	*sim.Engine
	phase, claims map[graph.NodeID]*bb.Node
}

func (e *claimsTap) SetProcess(v graph.NodeID, p sim.Process) error {
	if nd, ok := p.(*bb.Node); ok {
		if e.phase == nil {
			e.phase = map[graph.NodeID]*bb.Node{}
		}
		e.phase[v] = nd
	}
	return e.Engine.SetProcess(v, p)
}

func (e *claimsTap) RunPhase(name string, rounds int) (*sim.PhaseStats, error) {
	if name == "claims" {
		e.claims = e.phase
	}
	e.phase = nil
	return e.Engine.RunPhase(name, rounds)
}

// EqualityNode is one node's equality-check state after an instance: its
// Phase-1 value, its packed x, the symbols it recorded for each in-edge
// and the flag it computed (before any adversary override).
type EqualityNode struct {
	Value     []byte
	X         []gf.Elem
	RecvCoded []CodedClaim
	Flag      bool
}

// EqualityRun is one instance's equality check: the plan's coding scheme,
// the symbols sent on each G_k edge in round 0, and every node's state.
type EqualityRun struct {
	K      int
	Scheme *coding.Scheme
	Sent   map[[2]graph.NodeID][]gf.Elem
	Nodes  map[graph.NodeID]EqualityNode
}

// EqualityRuns runs one instance per input on the lockstep engine, every
// node in the one execution, folding each, and returns the equality check
// of every instance that ran one.
func EqualityRuns(cfg Config, inputs [][]byte) ([]EqualityRun, error) {
	var runs []EqualityRun
	err := runFolded(cfg, inputs, func() *equalityTap {
		tap := &equalityTap{Engine: sim.New(cfg.Graph), states: map[graph.NodeID]*nodeState{}}
		tap.SetRecording(true)
		return tap
	}, func(pl *InstancePlan, tap *equalityTap, ir *InstanceResult) {
		if len(tap.states) == 0 {
			return
		}
		run := EqualityRun{K: ir.K, Scheme: pl.scheme, Sent: map[[2]graph.NodeID][]gf.Elem{}, Nodes: map[graph.NodeID]EqualityNode{}}
		for _, r := range tap.Records() {
			if em, ok := r.Msg.Body.(EqMsg); ok && r.Phase == "equality" && r.Round == 0 {
				run.Sent[[2]graph.NodeID{r.Msg.From, r.Msg.To}] = em.Symbols
			}
		}
		for v, st := range tap.states {
			run.Nodes[v] = EqualityNode{Value: st.value, X: st.x, RecvCoded: st.recvCoded, Flag: st.flag}
		}
		runs = append(runs, run)
	})
	return runs, err
}

// equalityTap is a lockstep engine that keeps the node states of the
// equality check.
type equalityTap struct {
	*sim.Engine
	states map[graph.NodeID]*nodeState
}

func (e *equalityTap) SetProcess(v graph.NodeID, p sim.Process) error {
	if c, ok := p.(equalityCheck); ok {
		e.states[v] = c.st
	}
	return e.Engine.SetProcess(v, p)
}
