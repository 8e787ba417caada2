package nab_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"nab"
	"nab/internal/flight"
)

// TestSessionDifferentialWithFlightRecorder pins the recorder's core
// contract: it is a passive observer. The same dispute-heavy workload
// runs on the lockstep oracle bare and on the pipelined engine with the
// recorder armed, and the commits must stay byte-identical — then the
// trace itself must be a decodable dump that actually captured the run
// (launches, phases, commits, and barrier events when replays happened).
func TestSessionDifferentialWithFlightRecorder(t *testing.T) {
	defer flight.Default().Disable() // the recorder is process-global
	ctx := context.Background()
	mkCfg := func() nab.Config {
		return nab.Config{
			Graph: nab.CompleteGraph(7, 2), Source: 1, F: 2, LenBytes: 24, Seed: 7,
			Adversaries: map[nab.NodeID]nab.Adversary{
				3: nab.FalseAlarmAdversary(),
				5: nab.BlockFlipperAdversary(),
			},
		}
	}
	payloads := mkPayloads(5, 24)

	lockSess, err := nab.Open(ctx, mkCfg(), nab.WithLockstep())
	if err != nil {
		t.Fatal(err)
	}
	defer lockSess.Close()
	want, wantDisputes := feedAndCollect(t, lockSess, payloads)

	// K7 traffic is frame-heavy (thousands of EvFrameSend/Recv per
	// instance), so the ring must be large enough not to lap the five
	// launches this test counts.
	pipeSess, err := nab.Open(ctx, mkCfg(), nab.WithWindow(4), nab.WithFlightRecorder(1<<18))
	if err != nil {
		t.Fatal(err)
	}
	defer pipeSess.Close()
	got, gotDisputes := feedAndCollect(t, pipeSess, payloads)

	if gotDisputes != wantDisputes {
		t.Errorf("recorded run dispute set %q, want %q", gotDisputes, wantDisputes)
	}
	for i, w := range want {
		g := got[i]
		if g.Mismatch != w.Mismatch || g.Phase3 != w.Phase3 {
			t.Errorf("instance %d: mismatch/phase3 = %v/%v, want %v/%v",
				i+1, g.Mismatch, g.Phase3, w.Mismatch, w.Phase3)
		}
		for v, out := range w.Outputs {
			if !bytes.Equal(g.Outputs[v], out) {
				t.Errorf("instance %d: node %d output %x, want %x", i+1, v, g.Outputs[v], out)
			}
		}
	}

	// The trace must have watched the run it did not perturb.
	raw := pipeSess.TraceDump()
	if raw == nil {
		t.Fatal("TraceDump returned nil with the recorder armed")
	}
	dump, err := flight.Decode(raw)
	if err != nil {
		t.Fatalf("TraceDump did not round-trip: %v", err)
	}
	counts := map[flight.EventType]int{}
	for _, ev := range dump.Events {
		counts[ev.Type]++
	}
	if counts[flight.EvCommit] != len(payloads) {
		t.Errorf("trace has %d commits, want %d", counts[flight.EvCommit], len(payloads))
	}
	if counts[flight.EvLaunch] < len(payloads) {
		t.Errorf("trace has %d launches, want at least %d", counts[flight.EvLaunch], len(payloads))
	}
	if counts[flight.EvPhase] == 0 {
		t.Error("trace has no phase transitions")
	}
	if replays := pipeSess.Result().Replays; replays > 0 {
		if counts[flight.EvBarrierOpen] == 0 || counts[flight.EvReplay] != replays {
			t.Errorf("run replayed %d instances but trace has %d barrier-opens / %d replays",
				replays, counts[flight.EvBarrierOpen], counts[flight.EvReplay])
		}
	}
	if evs := pipeSess.FlightEvents(); len(evs) != len(dump.Events) {
		t.Errorf("FlightEvents returned %d events, dump has %d", len(evs), len(dump.Events))
	}
}

// TestCloseDisarmsFlightPredicate pins the session-lifetime contract:
// the predicate a session installs via WithFlightPredicate stops
// running on the process-global record path once that session closes
// (it may capture session state), while the ring itself stays armed for
// post-mortem dumps.
func TestCloseDisarmsFlightPredicate(t *testing.T) {
	defer flight.Default().Disable() // the recorder is process-global
	var calls atomic.Int64
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 1), Source: 1, F: 1, LenBytes: 8, Seed: 1}
	sess, err := nab.Open(context.Background(), cfg, nab.WithLockstep(),
		nab.WithFlightPredicate(func(nab.FlightEvent) bool {
			calls.Add(1)
			return false
		}))
	if err != nil {
		t.Fatal(err)
	}
	flight.Default().Record(flight.Event{Type: flight.EvCommit, K: 1, Node: -1})
	if calls.Load() == 0 {
		t.Fatal("predicate not installed while the session is open")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	flight.Default().Record(flight.Event{Type: flight.EvCommit, K: 2, Node: -1})
	if got := calls.Load(); got != before {
		t.Fatalf("predicate ran %d more times after Close", got-before)
	}
	if !flight.Default().Enabled() {
		t.Fatal("Close disabled the ring; it must stay armed for post-mortem dumps")
	}
}

// TestRecoverRecordsWALRecover checks that reopening a WAL records one
// EvWALRecover event: the recovered watermark, the submission tail the
// session resumes from, and the count of commits it replays.
func TestRecoverRecordsWALRecover(t *testing.T) {
	defer flight.Default().Disable() // the recorder is process-global
	dir := t.TempDir()
	payloads := mkPayloads(8, 24)
	crashSession(t, dir, durableCfg(), payloads, 3)

	ctx := context.Background()
	sess, err := nab.Open(ctx, durableCfg(), nab.Recover(dir), nab.WithFlightRecorder(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var recs []nab.FlightEvent
	for _, ev := range sess.FlightEvents() {
		if ev.Type == flight.EvWALRecover {
			recs = append(recs, ev)
		}
	}
	go func() {
		for _, p := range payloads[sess.RecoveredSeq():] {
			if _, err := sess.Submit(ctx, p); err != nil {
				return
			}
		}
		sess.Drain(ctx)
	}()
	replayed, watermark := 0, 0
	for c := range sess.Commits() {
		if c.Replayed {
			replayed++
			watermark = c.Result.K
		}
	}
	if len(recs) != 1 {
		t.Fatalf("recorded %d EvWALRecover events, want 1", len(recs))
	}
	ev := recs[0]
	if int(ev.K) != watermark || ev.Inst != uint64(sess.RecoveredSeq()) || int(ev.Arg) != replayed || watermark < 3 {
		t.Fatalf("EvWALRecover K=%d Inst=%d Arg=%d; want watermark %d (at least 3), tail %d, %d replayed",
			ev.K, ev.Inst, ev.Arg, watermark, sess.RecoveredSeq(), replayed)
	}
}
