// Package core implements NAB — the paper's Network-Aware Byzantine
// broadcast algorithm — as a multi-instance driver over pluggable phase
// engines: Phase 1 unreliable broadcast over packed spanning
// arborescences, Phase 2 equality check with local linear coding plus
// 1-bit flag agreement via classic BB, and Phase 3 dispute control with
// transcript audit and diminishing instance graphs.
//
// The per-instance logic lives in Protocol / InstancePlan / DisputeState
// and runs on any PhaseEngine. Runner drives it on the lockstep
// synchronous simulator (internal/sim); internal/runtime drives the same
// logic on pipelined instance executions over internal/transport.
package core

import (
	"fmt"

	"nab/internal/dispute"
	"nab/internal/flight"
	"nab/internal/graph"
	"nab/internal/sim"
)

// Config parameterizes a NAB run.
type Config struct {
	Graph    *graph.Directed // G = G_1
	Source   graph.NodeID    // the broadcasting node (node 1 in the paper)
	F        int             // global fault bound, n >= 3F+1, connectivity >= 2F+1
	LenBytes int             // input size L = 8*LenBytes bits per instance
	Seed     int64           // randomness for coding matrices
	// Adversaries maps faulty nodes to their behaviours. Nodes absent from
	// the map are fault-free. len(Adversaries) must be <= F.
	Adversaries map[graph.NodeID]Adversary
}

// InstanceResult reports one NAB instance.
type InstanceResult struct {
	K       int
	Gamma   int64
	Rho     int
	SymBits uint
	Stripes int
	// Outputs maps each fault-free node to its decided value. Values are
	// read-only: nodes that decided the same bytes may share one backing
	// array (every node's default value when the source is gone, and the
	// one audited output after Phase 3).
	Outputs map[graph.NodeID][]byte
	// Mismatch reports whether any (agreed) flag was MISMATCH.
	Mismatch bool
	// Phase3 reports whether dispute control ran.
	Phase3 bool
	// NewDisputes / NewFaulty are Phase 3 findings.
	NewDisputes [][2]graph.NodeID
	NewFaulty   []graph.NodeID
	// SchemeTries counts the coding-matrix draws of the plan this instance
	// ran on: one plan per generation, so every instance of a generation
	// reports the same count.
	SchemeTries int
	// Times per phase in the cut-through model (time units); the
	// store-and-forward variant for Phase 1 enables pipelining analysis.
	Phase1Time    float64
	Phase1SFTime  float64
	Phase1Rounds  int
	EqualityTime  float64
	FlagTime      float64
	DisputeTime   float64
	TotalBits     int64
	ExcludedNodes int
	Phase1Only    bool
}

// TotalTime returns the instance's duration in the cut-through model.
func (ir *InstanceResult) TotalTime() float64 {
	return ir.Phase1Time + ir.EqualityTime + ir.FlagTime + ir.DisputeTime
}

// RunResult aggregates a sequence of instances. Every committed instance
// is accounted by Add; the counts and sums below therefore cover the whole
// run whether or not the per-instance reports were kept.
type RunResult struct {
	// Instances holds the per-instance reports, in commit order, for runs
	// that have nowhere else to put them: Runner.Run, and a RunStream given
	// no commit sink. A streaming run hands each report to its sink and
	// leaves Instances nil, so its memory does not grow with the stream.
	Instances []*InstanceResult
	LenBits   int

	committed int
	modelTime float64
	disputes  int
}

// Add accounts one committed instance; retain also keeps its report in
// Instances.
func (rr *RunResult) Add(ir *InstanceResult, retain bool) {
	rr.committed++
	rr.modelTime += ir.TotalTime()
	if ir.Phase3 {
		rr.disputes++
	}
	if retain {
		rr.Instances = append(rr.Instances, ir)
	}
}

// Committed returns the number of instances the run committed.
func (rr *RunResult) Committed() int { return rr.committed }

// TotalTime sums instance durations (cut-through).
func (rr *RunResult) TotalTime() float64 { return rr.modelTime }

// Throughput returns bits broadcast per time unit over the whole run.
func (rr *RunResult) Throughput() float64 {
	if rr.modelTime == 0 {
		return 0
	}
	return float64(rr.committed*rr.LenBits) / rr.modelTime
}

// DisputePhases counts instances where Phase 3 ran.
func (rr *RunResult) DisputePhases() int { return rr.disputes }

// Runner drives repeated NAB instances on the lockstep simulator, carrying
// dispute state across them.
type Runner struct {
	proto *Protocol
	ds    *DisputeState
}

// NewRunner validates the configuration and prepares instance 1.
func NewRunner(cfg Config) (*Runner, error) {
	proto, err := NewProtocol(cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{
		proto: proto,
		ds:    NewDisputeState(cfg.Graph),
	}, nil
}

// Protocol returns the validated protocol this runner drives.
func (r *Runner) Protocol() *Protocol { return r.proto }

// InstanceGraph returns the current G_k.
func (r *Runner) InstanceGraph() *graph.Directed { return r.ds.Graph() }

// Disputes returns the accumulated dispute set.
func (r *Runner) Disputes() *dispute.Set { return r.ds.Disputes() }

// RestoreSnapshot boots a fresh runner directly at snap.K with no
// per-instance replay: the dispute state (generation included) is
// restored from the snapshot plus the post-snapshot tail results
// (Protocol.RestoreState), and the runner resumes at the tail's end + 1.
// A nil tail resumes exactly at snap.K + 1. It is the lockstep half of
// WAL crash-recovery. Plans are seeded by generation (Protocol.Plan), so
// the restored runner draws the schemes an uninterrupted one would.
func (r *Runner) RestoreSnapshot(snap SnapshotState, tail []*InstanceResult) error {
	if k := r.ds.K(); k != 0 {
		return fmt.Errorf("core: RestoreSnapshot on a runner that already executed %d instances", k)
	}
	ds, err := r.proto.RestoreState(snap, tail)
	if err != nil {
		return err
	}
	r.ds = ds
	return nil
}

// Run executes one instance per input.
func (r *Runner) Run(inputs [][]byte) (*RunResult, error) {
	rr := &RunResult{LenBits: r.proto.lenBits}
	for _, in := range inputs {
		ir, err := r.RunInstance(in)
		if err != nil {
			return nil, err
		}
		rr.Add(ir, true)
	}
	return rr, nil
}

// RunInstance executes the k-th NAB instance broadcasting input.
func (r *Runner) RunInstance(input []byte) (*InstanceResult, error) {
	k := r.ds.K() + 1
	if len(input) != r.proto.cfg.LenBytes {
		return nil, fmt.Errorf("core: instance %d: input is %d bytes, want %d", k, len(input), r.proto.cfg.LenBytes)
	}
	if flight.Enabled() {
		flight.Record(flight.Event{Type: flight.EvLaunch, Node: -1,
			Inst: uint64(k), K: int32(k), Gen: int32(r.ds.Gen())})
	}
	plan := r.proto.Plan(r.ds)
	engine := sim.New(r.proto.cfg.Graph)
	ir, err := plan.Execute(engine, k, input)
	if err != nil {
		return nil, err
	}
	gen := r.ds.Gen()
	if err := r.proto.Fold(r.ds, ir); err != nil {
		return nil, err
	}
	if flight.Enabled() {
		flight.Record(flight.Event{Type: flight.EvCommit, Node: -1,
			Inst: uint64(k), K: int32(k), Gen: int32(gen), Arg: uint64(ir.TotalBits)})
	}
	return ir, nil
}
