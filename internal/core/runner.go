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
// logic concurrently on per-node actors over internal/transport.
package core

import (
	"fmt"
	"math/rand"

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
	// MaxSchemeTries bounds coding-matrix redraws per instance (Theorem 1
	// makes one draw succeed w.h.p.; tiny fields may need more). Default 64.
	MaxSchemeTries int
	// Adversaries maps faulty nodes to their behaviours. Nodes absent from
	// the map are fault-free. len(Adversaries) must be <= F.
	Adversaries map[graph.NodeID]Adversary
	// SkipConnectivityCheck disables the vertex-connectivity precondition
	// check (useful when the caller already verified it).
	SkipConnectivityCheck bool

	// Ablation overrides (0 = use the paper's parameter choice):
	// RhoOverride forces the equality-check parameter below the optimal
	// floor(U_k/2); GammaOverride caps the number of Phase-1 spanning
	// trees below gamma_k; RelayPaths overrides the 2f+1 disjoint-path
	// count of the complete-graph emulation (must be >= 2f+1 to stay
	// correct; larger values trade bandwidth for nothing, which is the
	// point of the ablation).
	RhoOverride   int
	GammaOverride int
	RelayPaths    int
}

// InstanceResult reports one NAB instance.
type InstanceResult struct {
	K       int
	Gamma   int64
	Rho     int
	SymBits uint
	Stripes int
	// Outputs maps each fault-free node to its decided value.
	Outputs map[graph.NodeID][]byte
	// Mismatch reports whether any (agreed) flag was MISMATCH.
	Mismatch bool
	// Phase3 reports whether dispute control ran.
	Phase3 bool
	// NewDisputes / NewFaulty are Phase 3 findings.
	NewDisputes [][2]graph.NodeID
	NewFaulty   []graph.NodeID
	// SchemeTries counts coding-matrix draws used this instance.
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
	rng   *rand.Rand
	k     int
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
		rng:   rand.New(rand.NewSource(cfg.Seed)),
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
// rebuilt from the snapshot, then any post-snapshot tail results are
// folded in order, and the runner resumes at the tail's end + 1. A nil
// tail resumes exactly at snap.K + 1. It is the lockstep half of WAL
// crash-recovery: a log with no snapshot record restores from the zero
// SnapshotState with its whole committed history as the tail.
//
// The coding-matrix RNG restarts from Seed rather than from its
// pre-crash position; scheme draws are verified before use, so committed
// outputs and dispute evolution are unaffected (the same tolerance the
// pipelined engine's per-generation seeding already relies on).
func (r *Runner) RestoreSnapshot(snap SnapshotState, tail []*InstanceResult) error {
	if r.k != 0 {
		return fmt.Errorf("core: RestoreSnapshot on a runner that already executed %d instances", r.k)
	}
	if snap.K < 0 {
		return fmt.Errorf("core: RestoreSnapshot to negative instance %d", snap.K)
	}
	ds, err := r.proto.RestoreState(snap)
	if err != nil {
		return err
	}
	r.ds, r.k = ds, snap.K
	for _, ir := range tail {
		if ir.K != r.k+1 {
			return fmt.Errorf("core: RestoreSnapshot: tail instance %d after watermark %d", ir.K, r.k)
		}
		if err := r.proto.Fold(r.ds, ir); err != nil {
			return fmt.Errorf("core: RestoreSnapshot: %w", err)
		}
		r.k = ir.K
	}
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
	r.k++
	if len(input) != r.proto.cfg.LenBytes {
		return nil, fmt.Errorf("core: instance %d: input is %d bytes, want %d", r.k, len(input), r.proto.cfg.LenBytes)
	}
	if flight.Enabled() {
		flight.Record(flight.Event{Type: flight.EvLaunch, Node: -1,
			Inst: uint64(r.k), K: int32(r.k), Gen: int32(r.ds.Gen())})
	}
	plan, err := r.proto.PlanInstance(r.ds, r.k, r.rng)
	if err != nil {
		return nil, err
	}
	engine := sim.New(r.proto.cfg.Graph)
	engine.SetRecording(false)
	ir, err := plan.Execute(engine, r.k, input)
	if err != nil {
		return nil, err
	}
	gen := r.ds.Gen()
	if err := r.proto.Fold(r.ds, ir); err != nil {
		return nil, err
	}
	if flight.Enabled() {
		flight.Record(flight.Event{Type: flight.EvCommit, Node: -1,
			Inst: uint64(r.k), K: int32(r.k), Gen: int32(gen), Arg: uint64(ir.TotalBits)})
	}
	return ir, nil
}
