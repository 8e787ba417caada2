package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
)

// TestRestoreMatchesFold pins the restore path to the fold rule on real
// dispute histories: at every watermark k, restoring the folded state's
// own snapshot gives back that state, and so does restoring any earlier
// watermark's snapshot and folding the results in between — the property
// that lets recovery, the session log's mirror and a cluster's snapshot
// servers start from different bases and still agree.
func TestRestoreMatchesFold(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, f int
		advs map[graph.NodeID]core.Adversary
	}{
		{"K4/alarm", 4, 1, map[graph.NodeID]core.Adversary{3: adversary.FalseAlarm{}}},
		{"K4/crash", 4, 1, map[graph.NodeID]core.Adversary{3: adversary.Crash{}}},
		{"K7/crash+flip", 7, 2, map[graph.NodeID]core.Adversary{5: adversary.Crash{}, 6: &adversary.BlockFlipper{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Graph: topo.CompleteBi(tc.n, 1), Source: 1, F: tc.f, LenBytes: 8, Seed: 3, Adversaries: tc.advs}
			runner, err := core.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([][]byte, 10)
			for i := range inputs {
				inputs[i] = bytes.Repeat([]byte{byte(i + 1)}, cfg.LenBytes)
			}
			res, err := runner.Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			p := runner.Protocol()
			ds := core.NewDisputeState(cfg.Graph)
			folded := []foldedState{foldedAt(ds)}
			for _, ir := range res.Instances {
				if err := p.Fold(ds, ir); err != nil {
					t.Fatal(err)
				}
				folded = append(folded, foldedAt(ds))
			}
			if ds.Gen() == 0 {
				t.Fatal("the run made no dispute progress; nothing to restore")
			}
			for k, want := range folded {
				got, err := p.RestoreState(want.state, nil)
				if err != nil {
					t.Fatalf("restore at %d: %v", k, err)
				}
				sameState(t, got, want)
				for b := 0; b < k; b++ {
					got, err := p.RestoreState(folded[b].state, res.Instances[b:k])
					if err != nil {
						t.Fatalf("restore at %d from base %d: %v", k, b, err)
					}
					sameState(t, got, want)
				}
			}
		})
	}
}

// foldedState is a folded DisputeState as of one watermark: its snapshot
// and its instance graph G_k.
type foldedState struct {
	state core.SnapshotState
	gk    string
}

func foldedAt(ds *core.DisputeState) foldedState {
	return foldedState{state: ds.State(), gk: ds.Graph().Marshal()}
}

// sameState fails unless got and want agree on the watermark, generation,
// disputes, faulty set and instance graph G_k.
func sameState(t *testing.T, got *core.DisputeState, want foldedState) {
	t.Helper()
	if g := got.State(); !reflect.DeepEqual(g, want.state) {
		t.Fatalf("restored state %+v, want %+v", g, want.state)
	}
	if g := got.Graph().Marshal(); g != want.gk {
		t.Fatalf("restored G_%d:\n%s\nwant:\n%s", want.state.K, g, want.gk)
	}
}
