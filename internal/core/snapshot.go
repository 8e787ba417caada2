package core

import (
	"fmt"
	"sort"

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
	// restoration; State emits both in canonical sorted order.
	Disputes [][2]graph.NodeID
	Faulty   []graph.NodeID
}

// State captures ds as the snapshot at its watermark. Disputes and Faulty
// come out in the canonical sorted order, so equal states encode to equal
// bytes everywhere.
func (ds *DisputeState) State() SnapshotState {
	s := SnapshotState{K: ds.k, Gen: ds.gen, Disputes: ds.disputes.Pairs()}
	for v := range ds.faultySoFar {
		s.Faulty = append(s.Faulty, v)
	}
	sort.Slice(s.Faulty, func(i, j int) bool { return s.Faulty[i] < s.Faulty[j] })
	return s
}

// RestoreState rebuilds the DisputeState an in-order Fold of the first
// s.K instances would have produced, then folds tail (instances s.K+1
// onward, in order) on top. It trusts s.Gen rather than re-deriving it:
// the per-fold progress history is not recoverable from the accumulated
// sets alone. A WAL with no snapshot record restores from the zero
// SnapshotState with its whole committed history as the tail.
func (p *Protocol) RestoreState(s SnapshotState, tail []*InstanceResult) (*DisputeState, error) {
	if s.K < 0 || s.Gen < 0 {
		return nil, fmt.Errorf("core: restore snapshot: negative watermark %d or generation %d", s.K, s.Gen)
	}
	ds := NewDisputeState(p.cfg.Graph)
	if _, err := p.merge(ds, s.Disputes, s.Faulty); err != nil {
		return nil, fmt.Errorf("core: restore snapshot: %w", err)
	}
	ds.k, ds.gen = s.K, s.Gen
	for _, ir := range tail {
		if err := p.Fold(ds, ir); err != nil {
			return nil, fmt.Errorf("core: restore snapshot: %w", err)
		}
	}
	return ds, nil
}
