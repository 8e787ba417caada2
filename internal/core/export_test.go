package core

import (
	"fmt"

	"nab/internal/bb"
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
	p, err := NewProtocol(cfg)
	if err != nil {
		return nil, err
	}
	ds := NewDisputeState(cfg.Graph)
	var runs []Phase3Run
	for i, in := range inputs {
		k := i + 1
		pl := p.Plan(ds)
		tap := &claimsTap{Engine: sim.New(cfg.Graph)}
		tap.SetRecording(false)
		ir, err := pl.Execute(tap, k, in)
		if err != nil {
			return nil, err
		}
		if err := p.Fold(ds, ir); err != nil {
			return nil, err
		}
		if !ir.Phase3 {
			continue
		}
		nd := tap.claims[p.honestNodes()[0]]
		raw := map[graph.NodeID][]byte{}
		for _, q := range pl.gk.Nodes() {
			raw[q] = nd.Decide(q)
		}
		runs = append(runs, Phase3Run{Plan: pl, Result: ir, Raw: raw})
	}
	return runs, nil
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
