package core

import (
	"fmt"
	"sort"

	"nab/internal/dispute"
	"nab/internal/graph"
)

// SnapshotState is the portable cross-instance engine state at a commit
// watermark: everything an engine needs to boot at instance K+1 with no
// per-instance replay. The dispute-graph generation is carried
// explicitly — plan-cache seeds derive from it, so an engine restored
// from a snapshot plans byte-identical coding schemes to one that folded
// the full history. The zero value is the fresh pre-instance-1 state.
type SnapshotState struct {
	// K is the watermark: every instance <= K is committed and folded.
	K int
	// Gen is the dispute-state generation at K.
	Gen int
	// Disputes holds the accumulated pairs, MarkFaulty expansions
	// included; Faulty the nodes proven faulty. Order is irrelevant for
	// restoration (callers canonicalize for wire encoding).
	Disputes [][2]graph.NodeID
	Faulty   []graph.NodeID
}

// RestoreState rebuilds the DisputeState a full in-order fold of the
// first s.K instances would have produced, trusting s.Gen rather than
// re-deriving it (the per-fold progress history is not recoverable from
// the accumulated sets alone).
func (p *Protocol) RestoreState(s SnapshotState) (*DisputeState, error) {
	ds := NewDisputeState(p.cfg.Graph)
	for _, pair := range s.Disputes {
		if err := ds.disputes.Add(pair[0], pair[1]); err != nil {
			return nil, fmt.Errorf("core: restore snapshot: %w", err)
		}
	}
	for _, v := range s.Faulty {
		ds.faultySoFar[v] = true
		if err := ds.disputes.MarkFaulty(p.cfg.Graph, v); err != nil {
			return nil, fmt.Errorf("core: restore snapshot: %w", err)
		}
	}
	if len(s.Disputes) > 0 || len(s.Faulty) > 0 {
		next, _, err := ds.disputes.Apply(p.cfg.Graph, p.cfg.F)
		if err != nil {
			return nil, fmt.Errorf("core: restore snapshot: diminishing graph: %w", err)
		}
		ds.gk = next
	}
	if s.Gen < 0 {
		return nil, fmt.Errorf("core: restore snapshot: negative generation %d", s.Gen)
	}
	ds.gen = s.Gen
	return ds, nil
}

// SnapshotBuilder mirrors dispute-state evolution outside a live engine:
// seed it with a base snapshot (or nothing, for instance 0), fold
// committed results in order, and read back the SnapshotState at any
// watermark along the way. The generation accounting replicates
// Protocol.Fold's progress rule exactly — a Phase 3 result bumps the
// generation iff it contributed a new pair or a newly proven-faulty
// node — which is what keeps snapshots synthesized by different
// processes (from different bases) byte-identical.
type SnapshotBuilder struct {
	g        *graph.Directed
	disputes *dispute.Set
	faulty   map[graph.NodeID]bool
	k        int
	gen      int
}

// NewSnapshotBuilder returns a builder at the fresh pre-instance-1 state
// of topology g.
func NewSnapshotBuilder(g *graph.Directed) *SnapshotBuilder {
	return &SnapshotBuilder{g: g, disputes: dispute.NewSet(), faulty: map[graph.NodeID]bool{}}
}

// Seed resets the builder to base. Returns the builder for chaining.
func (b *SnapshotBuilder) Seed(base SnapshotState) (*SnapshotBuilder, error) {
	b.disputes = dispute.NewSet()
	b.faulty = map[graph.NodeID]bool{}
	for _, pair := range base.Disputes {
		if err := b.disputes.Add(pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	for _, v := range base.Faulty {
		b.faulty[v] = true
		if err := b.disputes.MarkFaulty(b.g, v); err != nil {
			return nil, err
		}
	}
	b.k, b.gen = base.K, base.Gen
	return b, nil
}

// Fold advances the mirror by one committed instance. Results must be
// folded in commit order starting at the seed watermark + 1.
func (b *SnapshotBuilder) Fold(ir *InstanceResult) error {
	if ir.K != b.k+1 {
		return fmt.Errorf("core: snapshot builder: fold of instance %d at watermark %d", ir.K, b.k)
	}
	b.k = ir.K
	if !ir.Phase3 {
		return nil
	}
	progress := false
	for _, pair := range ir.NewDisputes {
		if !b.disputes.Has(pair[0], pair[1]) {
			progress = true
		}
		if err := b.disputes.Add(pair[0], pair[1]); err != nil {
			return err
		}
	}
	for _, v := range ir.NewFaulty {
		if !b.faulty[v] {
			progress = true
			b.faulty[v] = true
		}
		if err := b.disputes.MarkFaulty(b.g, v); err != nil {
			return err
		}
	}
	if progress {
		b.gen++
	}
	return nil
}

// K returns the builder's current watermark.
func (b *SnapshotBuilder) K() int { return b.k }

// Gen returns the builder's current generation.
func (b *SnapshotBuilder) Gen() int { return b.gen }

// State captures the snapshot at the current watermark. Disputes and
// Faulty come out in the canonical sorted order, so equal states encode
// to equal bytes everywhere.
func (b *SnapshotBuilder) State() SnapshotState {
	s := SnapshotState{K: b.k, Gen: b.gen, Disputes: b.disputes.Pairs()}
	for v := range b.faulty {
		s.Faulty = append(s.Faulty, v)
	}
	sort.Slice(s.Faulty, func(i, j int) bool { return s.Faulty[i] < s.Faulty[j] })
	return s
}
