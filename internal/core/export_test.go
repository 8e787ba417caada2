package core

import (
	"nab/internal/bb"
	"nab/internal/graph"
	"nab/internal/sim"
)

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
		pl, err := p.Plan(ds, k)
		if err != nil {
			return nil, err
		}
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
