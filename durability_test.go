package nab_test

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nab"
	"nab/internal/wal"
)

// oracleRun executes payloads on a fresh lockstep runner — the committed
// sequence every recovery path must reproduce byte for byte.
func oracleRun(t *testing.T, cfg nab.Config, payloads [][]byte) []*nab.InstanceResult {
	t.Helper()
	runner, err := nab.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(payloads)
	if err != nil {
		t.Fatal(err)
	}
	return res.Instances
}

// durableCfg is the shared durability-test configuration: K4 with a
// false alarmer, so dispute control runs and the recovered state must
// carry disputes, exclusions and a diminished instance graph.
func durableCfg() nab.Config {
	return nab.Config{
		Graph: nab.CompleteGraph(4, 1), Source: 1, F: 1, LenBytes: 24, Seed: 11,
		Adversaries: map[nab.NodeID]nab.Adversary{3: nab.FalseAlarmAdversary()},
	}
}

// crashSession opens a durable session, submits all payloads, consumes
// commits until stopAfter have landed, and then tears the session down
// mid-stream (context cancel — the in-process stand-in for kill -9,
// losing all engine state while the WAL survives). Returns the commits
// observed before the crash.
func crashSession(t *testing.T, dir string, cfg nab.Config, payloads [][]byte, stopAfter int, opts ...nab.SessionOption) []*nab.InstanceResult {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := nab.Open(ctx, cfg, append([]nab.SessionOption{nab.Recover(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, p := range payloads {
			if _, err := sess.Submit(ctx, p); err != nil {
				return
			}
		}
	}()
	var seen []*nab.InstanceResult
	for c := range sess.Commits() {
		seen = append(seen, c.Result)
		if len(seen) >= stopAfter {
			cancel()
			break
		}
	}
	sess.Close()
	return seen
}

// recoverAndFinish reopens the WAL, verifies the replayed prefix, feeds
// any payloads the log never accepted, and returns the full committed
// sequence (replayed + live).
func recoverAndFinish(t *testing.T, dir string, cfg nab.Config, payloads [][]byte, opts ...nab.SessionOption) []*nab.InstanceResult {
	t.Helper()
	ctx := context.Background()
	sess, err := nab.Open(ctx, cfg, append([]nab.SessionOption{nab.Recover(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	skip := int(sess.RecoveredSeq())
	if skip == 0 {
		t.Fatal("recovered session reports no restored sequence")
	}
	go func() {
		for _, p := range payloads[skip:] {
			if _, err := sess.Submit(ctx, p); err != nil {
				t.Errorf("submit after recovery: %v", err)
				return
			}
		}
		sess.Drain(ctx)
	}()
	var all []*nab.InstanceResult
	replayedDone := false
	for c := range sess.Commits() {
		if c.Replayed && replayedDone {
			t.Error("replayed commit delivered after live traffic started")
		}
		if !c.Replayed {
			replayedDone = true
		}
		if c.Result.K != len(all)+1 {
			t.Fatalf("commit %d arrived at position %d: recovery duplicated or skipped an instance", c.Result.K, len(all)+1)
		}
		all = append(all, c.Result)
	}
	if err := sess.Err(); err != nil {
		t.Fatalf("recovered session failed: %v", err)
	}
	if res := sess.Result(); res == nil || res.Committed() != len(all) {
		t.Errorf("recovered session result incomplete: %v", res)
	}
	return all
}

// assertSameCommits checks that every committed instance, replayed from
// the log or executed live, equals the oracle's as a whole InstanceResult:
// outputs, schedule, findings and model quantities alike.
func assertSameCommits(t *testing.T, got, want []*nab.InstanceResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("committed %d instances, oracle %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("instance %d: %+v, oracle %+v", i+1, g, w)
		}
	}
}

func TestSessionRecoverPipelined(t *testing.T) {
	cfg := durableCfg()
	payloads := mkPayloads(10, cfg.LenBytes)
	want := oracleRun(t, cfg, payloads)
	dir := t.TempDir()

	pre := crashSession(t, dir, cfg, payloads, 4)
	if len(pre) < 4 {
		t.Fatalf("pre-crash session committed only %d instances", len(pre))
	}
	all := recoverAndFinish(t, dir, cfg, payloads)
	assertSameCommits(t, all, want)
}

func TestSessionRecoverLockstep(t *testing.T) {
	cfg := durableCfg()
	payloads := mkPayloads(8, cfg.LenBytes)
	want := oracleRun(t, cfg, payloads)
	dir := t.TempDir()

	crashSession(t, dir, cfg, payloads, 3, nab.WithLockstep())
	all := recoverAndFinish(t, dir, cfg, payloads, nab.WithLockstep())
	assertSameCommits(t, all, want)
}

// TestSessionRecoverAcrossEngines crashes under the pipelined engine and
// recovers under lockstep: the WAL is engine-agnostic because every
// engine commits byte-identical sequences.
func TestSessionRecoverAcrossEngines(t *testing.T) {
	cfg := durableCfg()
	payloads := mkPayloads(8, cfg.LenBytes)
	want := oracleRun(t, cfg, payloads)
	dir := t.TempDir()

	crashSession(t, dir, cfg, payloads, 3)
	all := recoverAndFinish(t, dir, cfg, payloads, nab.WithLockstep())
	assertSameCommits(t, all, want)
}

// TestSessionRecoverTornTail chops bytes off the live WAL segment —
// a record torn mid-write by the crash — and recovery must drop the torn
// record and re-execute it instead of mis-replaying.
func TestSessionRecoverTornTail(t *testing.T) {
	cfg := durableCfg()
	payloads := mkPayloads(8, cfg.LenBytes)
	want := oracleRun(t, cfg, payloads)
	dir := t.TempDir()

	crashSession(t, dir, cfg, payloads, 4)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	all := recoverAndFinish(t, dir, cfg, payloads)
	assertSameCommits(t, all, want)
}

// TestSessionSnapshotRecovery runs with an aggressive snapshot interval
// so recovery restores through an engine-state snapshot and the commits
// above it rather than the raw commit history.
func TestSessionSnapshotRecovery(t *testing.T) {
	cfg := durableCfg()
	payloads := mkPayloads(10, cfg.LenBytes)
	want := oracleRun(t, cfg, payloads)
	dir := t.TempDir()

	crashSession(t, dir, cfg, payloads, 6, nab.WithSnapshotInterval(2))
	all := recoverAndFinish(t, dir, cfg, payloads, nab.WithSnapshotInterval(2))
	assertSameCommits(t, all, want)

	// A second recovery after the clean drain replays the full sequence.
	sess, err := nab.Open(context.Background(), cfg, nab.Recover(dir), nab.WithSnapshotInterval(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := int(sess.RecoveredSeq()); got != len(payloads) {
		t.Errorf("second recovery restored seq %d, want %d", got, len(payloads))
	}
	sess.Close()
}

// TestRecoverRejectsRetiredCheckpointRecord pins that the snapshot is the
// only state record: a 0x04 record — the retired dispute checkpoint, here
// one that would have matched the committed prefix — fails recovery as an
// unknown record type instead of being folded.
func TestRecoverRejectsRetiredCheckpointRecord(t *testing.T) {
	cfg := durableCfg()
	payloads := mkPayloads(3, cfg.LenBytes)
	dir := t.TempDir()
	ctx := context.Background()
	sess, err := nab.Open(ctx, cfg, nab.WithDurability(dir), nab.WithLockstep())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := sess.Submit(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	sess.Drain(ctx)
	for range sess.Commits() {
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// K = 3, no dispute pairs, no faulty nodes.
	if _, err := log.Append(0x04, append(binary.AppendVarint(nil, 3), 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	sess, err = nab.Open(ctx, cfg, nab.Recover(dir), nab.WithLockstep())
	if err == nil {
		sess.Close()
		t.Fatal("recovery folded a retired checkpoint record")
	}
	if !strings.Contains(err.Error(), "unknown record type") {
		t.Fatalf("recovery failed with %v, want an unknown record type error", err)
	}
}

// TestSessionRecoverRacingClose hammers the teardown path: Close lands
// while recovery replay and live commits are still streaming, at a
// different point every iteration. No schedule may race (the CI -race
// variant is the point), deadlock, or corrupt the log — a final clean
// recovery must still reproduce the oracle byte for byte.
func TestSessionRecoverRacingClose(t *testing.T) {
	cfg := durableCfg()
	payloads := mkPayloads(12, cfg.LenBytes)
	want := oracleRun(t, cfg, payloads)
	dir := t.TempDir()
	crashSession(t, dir, cfg, payloads, 4)

	ctx := context.Background()
	for i := 0; i < 12; i++ {
		sess, err := nab.Open(ctx, cfg, nab.Recover(dir))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		go func() {
			skip := int(sess.RecoveredSeq())
			for _, p := range payloads[skip:] {
				if _, err := sess.Submit(ctx, p); err != nil {
					return // the session is closing under us; expected
				}
			}
		}()
		closed := make(chan struct{})
		fire := func() {
			go func() {
				defer close(closed)
				sess.Close()
			}()
		}
		// Iterations sweep the close point from before the first commit
		// deep into the replayed prefix (at least 4 instances replay).
		stop := i % 5
		if stop == 0 {
			fire()
		}
		n := 0
		for range sess.Commits() {
			n++
			if n == stop {
				fire()
			}
		}
		select {
		case <-closed:
		case <-time.After(time.Minute):
			t.Fatalf("iteration %d: Close never returned", i)
		}
	}

	all := recoverAndFinish(t, dir, cfg, payloads)
	assertSameCommits(t, all, want)
}

func TestDurabilityGuards(t *testing.T) {
	cfg := durableCfg()
	dir := t.TempDir()
	payloads := mkPayloads(4, cfg.LenBytes)
	crashSession(t, dir, cfg, payloads, 2)

	// A fresh WithDurability over a used log must refuse.
	if _, err := nab.Open(context.Background(), cfg, nab.WithDurability(dir)); err == nil ||
		!strings.Contains(err.Error(), "Recover") {
		t.Errorf("WithDurability over a non-empty log: err = %v", err)
	}
	// A different configuration must be rejected by the fingerprint.
	other := cfg
	other.Seed = 999
	if _, err := nab.Open(context.Background(), other, nab.Recover(dir)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("recover under a different config: err = %v", err)
	}
	// A different adversary assignment is a different configuration too:
	// who misbehaves is part of the committed sequence.
	noAdv := cfg
	noAdv.Adversaries = nil
	if _, err := nab.Open(context.Background(), noAdv, nab.Recover(dir)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("recover under a different adversary assignment: err = %v", err)
	}
}
