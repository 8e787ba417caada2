package nab

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
	"nab/internal/wal"
)

// TestRecoveryAcrossSegmentCompaction forces the full compaction
// machinery through a session: tiny WAL segments rotate constantly, an
// aggressive snapshot interval compacts the log mid-run (dropping the
// original meta record's segment and the committed prefix's submissions),
// and recovery must still restore through the snapshot — meta
// re-asserted ahead of it, the dispute state restored from it, and the
// resumed tail byte-identical to an uninterrupted run.
func TestRecoveryAcrossSegmentCompaction(t *testing.T) {
	cfg := Config{
		Graph: topo.CompleteBi(4, 1), Source: 1, F: 1, LenBytes: 24, Seed: 11,
		Adversaries: map[graph.NodeID]Adversary{3: adversary.FalseAlarm{}},
	}
	const q = 24
	payloads := make([][]byte, q)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, cfg.LenBytes)
	}
	oracle, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Run(payloads)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	tiny := func(o *sessionOptions) {
		o.durability = &durabilityOptions{dir: dir, resume: true, snapEvery: 3, segmentBytes: 512}
	}
	ctx := context.Background()

	// runSome drives the session up to payload n and returns the commits
	// delivered this incarnation. After a compaction the replayed prefix
	// starts mid-history, so continuity is checked from the first
	// delivered K, not from 1.
	runSome := func(n int) []*InstanceResult {
		sess, err := Open(ctx, cfg, WithLockstep(), tiny)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		skip := int(sess.RecoveredSeq())
		go func() {
			for _, p := range payloads[skip:n] {
				if _, err := sess.Submit(ctx, p); err != nil {
					return
				}
			}
			sess.Drain(ctx)
		}()
		var got []*InstanceResult
		for c := range sess.Commits() {
			if len(got) > 0 && c.Result.K != got[len(got)-1].K+1 {
				t.Fatalf("commit %d after %d: duplicated or skipped", c.Result.K, got[len(got)-1].K)
			}
			got = append(got, c.Result)
		}
		if err := sess.Err(); err != nil {
			t.Fatalf("session failed: %v", err)
		}
		if last := got[len(got)-1].K; last != n {
			t.Fatalf("incarnation ended at instance %d, want %d", last, n)
		}
		return got
	}

	// First incarnation: run 15 of 24, drain cleanly (snapshots at 3,
	// 6, 9, 12, 15 — several compactions over 512-byte segments).
	runSome(15)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	// The first segment must be gone: compaction crossed segments.
	if filepath.Base(segs[0]) == "wal-0000000000000001.seg" {
		t.Fatalf("compaction never dropped the first segment (%d segments: %v)", len(segs), segs)
	}

	// Second incarnation resumes through the snapshot and finishes;
	// every delivered commit must match the oracle byte for byte.
	for _, g := range runSome(q) {
		w := want.Instances[g.K-1]
		if g.Mismatch != w.Mismatch || g.Phase3 != w.Phase3 {
			t.Errorf("instance %d: schedule diverged after compacted recovery", w.K)
		}
		for v, out := range w.Outputs {
			if !bytes.Equal(g.Outputs[v], out) {
				t.Errorf("instance %d: node %d output diverged", w.K, v)
			}
		}
	}

	// The recovered dispute state must match the oracle's.
	sess, err := Open(ctx, cfg, WithLockstep(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Disputes().String(), oracle.Disputes().String(); got != want {
		t.Errorf("recovered dispute set %q, want %q", got, want)
	}
	sess.Close()
}

// TestRecoverAnchorGapErrors pins recovery's handling of a log whose
// snapshot anchor is not extended by its first surviving commit — the
// shape a buggy compaction leaves when it orphans the (anchor, commit)
// range. A contiguous tail must recover; a gapped one must be a recover
// error, never a slice-bound panic.
func TestRecoverAnchorGapErrors(t *testing.T) {
	const fp, node = uint64(42), int64(3)

	build := func(firstK int) string {
		dir := t.TempDir()
		log, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(wal.TypeMeta, wal.AppendMeta(nil, wal.Meta{Fingerprint: fp, Node: node})); err != nil {
			t.Fatal(err)
		}
		snap := wal.Snapshot{SnapshotState: core.SnapshotState{K: 4}, Digest: wal.DigestSeed}
		if _, err := log.Append(wal.TypeSnapshot, wal.AppendSnapshot(nil, snap)); err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(wal.TypeCommit, wal.AppendCommit(nil, &core.InstanceResult{K: firstK})); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	sl, rec, err := openSessionLog(&durabilityOptions{dir: build(5), resume: true}, fp, node, true)
	if err != nil {
		t.Fatalf("contiguous anchored tail failed to recover: %v", err)
	}
	if rec.k != 5 || rec.base.K != 4 || len(rec.foldList) != 1 {
		t.Fatalf("contiguous recovery: k=%d base=%v folds=%d, want k=5 base.K=4 folds=1", rec.k, rec.base, len(rec.foldList))
	}
	sl.close()

	if _, _, err := openSessionLog(&durabilityOptions{dir: build(6), resume: true}, fp, node, true); err == nil || !strings.Contains(err.Error(), "does not extend the anchor") {
		t.Fatalf("orphaned (anchor, commit) range recovered: err = %v", err)
	}
}

// TestFloorSnapshotKeepsCommitTail drives a cluster-mode session log the
// way a rollback floor does — a snapshot persisted well behind the
// committed watermark — over tiny rotating segments. Compaction must keep
// every segment holding a commit above the floor (dropping the prefix
// below it), and recovery must hand the cluster node the full (floor,
// watermark] fold: the floor's digest and the commits whose fold
// projections chain on from it.
func TestFloorSnapshotKeepsCommitTail(t *testing.T) {
	const fp, node = uint64(7), int64(2)
	const floorK, w = 4, 12
	dir := t.TempDir()
	o := &durabilityOptions{dir: dir, resume: true, segmentBytes: 256}
	sl, _, err := openSessionLog(o, fp, node, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 64)
	for k := 1; k <= w; k++ {
		if err := sl.appendSubmit(k, payload); err != nil {
			t.Fatal(err)
		}
		if err := sl.logCommit(&core.InstanceResult{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.persistFloor(wal.Snapshot{SnapshotState: core.SnapshotState{K: floorK}, Digest: 0xfee1}); err != nil {
		t.Fatal(err)
	}
	if err := sl.close(); err != nil {
		t.Fatal(err)
	}

	// The floor did compact the prefix: the original first segment is gone.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	if filepath.Base(segs[0]) == "wal-0000000000000001.seg" {
		t.Errorf("floor snapshot never compacted the pre-floor prefix (%d segments)", len(segs))
	}

	sl2, rec, err := openSessionLog(o, fp, node, true)
	if err != nil {
		t.Fatalf("recovery after a trailing floor snapshot: %v", err)
	}
	defer sl2.close()
	if rec.base.K != floorK || rec.k != w {
		t.Fatalf("recovered base=%v k=%d, want base.K=%d k=%d", rec.base, rec.k, floorK, w)
	}
	for i, ir := range rec.foldList {
		if ir.K != floorK+1+i {
			t.Fatalf("fold %d carries instance %d, want %d", i, ir.K, floorK+1+i)
		}
	}
	if len(rec.foldList) != w-floorK {
		t.Fatalf("recovered %d folds, want %d", len(rec.foldList), w-floorK)
	}
	want, got := uint64(0xfee1), rec.base.Digest
	for i, ir := range rec.foldList {
		want = wal.Chain(want, wal.AppendCommitFold(nil, &core.InstanceResult{K: floorK + 1 + i}))
		got = wal.Chain(got, wal.AppendCommitFold(nil, ir))
	}
	if got != want {
		t.Errorf("recovered chain digest %x, want %x (floor digest chained over the replayed tail's fold projections)", got, want)
	}
}

// TestSnapshotCompactionBoundsLog pins the point of snapshot-anchored
// compaction: the on-disk log size is a function of the snapshot interval
// and segment size, NOT of stream length. Tripling the workload must not
// grow the surviving segment count — without compaction it would triple.
func TestSnapshotCompactionBoundsLog(t *testing.T) {
	run := func(q int) int {
		cfg := Config{Graph: topo.CompleteBi(4, 1), Source: 1, F: 1, LenBytes: 24, Seed: 11}
		payloads := make([][]byte, q)
		for i := range payloads {
			payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, cfg.LenBytes)
		}
		dir := t.TempDir()
		tiny := func(o *sessionOptions) {
			o.durability = &durabilityOptions{dir: dir, resume: true, snapEvery: 4, segmentBytes: 256}
		}
		ctx := context.Background()
		sess, err := Open(ctx, cfg, WithLockstep(), tiny)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		go func() {
			for _, p := range payloads {
				if _, err := sess.Submit(ctx, p); err != nil {
					return
				}
			}
			sess.Drain(ctx)
		}()
		for range sess.Commits() {
		}
		if err := sess.Err(); err != nil {
			t.Fatalf("q=%d session failed: %v", q, err)
		}
		if n := sess.Snapshots(); n < int64(q/4) {
			t.Errorf("q=%d: session wrote %d snapshots, want >= %d at interval 4", q, n, q/4)
		}
		sess.Close()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("q=%d: no segments: %v", q, err)
		}
		return len(segs)
	}
	short, long := run(32), run(96)
	t.Logf("32 instances leave %d segments, 96 leave %d", short, long)
	if long > short+1 {
		t.Errorf("log grew with history (%d segments at q=32, %d at q=96); compaction is not bounding the on-disk size", short, long)
	}
}

// TestLineageDigestAgreesAcrossEngines pins the one commit-chain digest
// rule of the single-process log to the lockstep oracle: every snapshot a
// durable single-process session takes — on demand, on its interval, and
// after a mid-stream crash and recovery on either engine — carries
// wal.Chain over the fold projections of the oracle's commits up to its
// watermark, and every snapshot record is byte for byte the canonical
// snapshot of the oracle's dispute state there. The cluster package's
// TestServedStateMatchesOracle pins the snapshot a durable cluster serves
// a join round to the same oracle bytes, so the two logs agree.
func TestLineageDigestAgreesAcrossEngines(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	const q, lenBytes, seed = 8, 24, 7
	cfg := Config{Graph: g, Source: 1, F: 1, LenBytes: lenBytes, Seed: seed,
		Adversaries: map[graph.NodeID]Adversary{3: adversary.FalseAlarm{}}}
	payloads := make([][]byte, q)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, lenBytes)
	}
	oracle, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Run(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if want.DisputePhases() == 0 {
		t.Fatal("the oracle ran no Phase 3; the digest would cover no dispute findings")
	}
	ds := core.NewDisputeState(g)
	chain := []uint64{wal.DigestSeed}
	snaps := [][]byte{wal.AppendSnapshot(nil, wal.Snapshot{SnapshotState: ds.State(), Digest: wal.DigestSeed})}
	for _, ir := range want.Instances {
		if err := oracle.Protocol().Fold(ds, ir); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, wal.Chain(chain[len(chain)-1], wal.AppendCommitFold(nil, ir)))
		snaps = append(snaps, wal.AppendSnapshot(nil, wal.Snapshot{SnapshotState: ds.State(), Digest: chain[len(chain)-1]}))
	}

	// run opens a durable session on dir with a snapshot every two
	// commits and feeds it the payloads its log has not accepted yet.
	// With stopAfter > 0 it crashes the session after that many commits;
	// otherwise it runs to the end and takes a snapshot on demand after
	// every delivered commit, replayed ones included.
	run := func(name, dir string, stopAfter int, opts ...SessionOption) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sess, err := Open(ctx, cfg, append([]SessionOption{Recover(dir), WithSnapshotInterval(2)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer sess.Close()
		skip := int(sess.RecoveredSeq())
		go func() {
			for _, p := range payloads[skip:] {
				if _, err := sess.Submit(ctx, p); err != nil {
					if ctx.Err() == nil {
						t.Errorf("%s: submit: %v", name, err)
					}
					return
				}
			}
			sess.Drain(ctx)
		}()
		seen := 0
		for range sess.Commits() {
			if seen++; seen == stopAfter {
				cancel() // the in-process stand-in for kill -9
				return
			}
			if stopAfter > 0 {
				continue
			}
			info, err := sess.Snapshot()
			if err != nil {
				t.Errorf("%s: snapshot: %v", name, err)
			} else if info.Digest != chain[info.K] {
				t.Errorf("%s: snapshot at %d: digest %016x, oracle chain %016x", name, info.K, info.Digest, chain[info.K])
			}
		}
		if err := sess.Err(); err != nil {
			t.Errorf("%s: session: %v", name, err)
		}
	}
	// checkLog compares every snapshot record left in dir's log with the
	// oracle's snapshot at its watermark.
	checkLog := func(name, dir string) {
		t.Helper()
		log, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		records := 0
		err = log.Replay(func(typ byte, payload []byte, _ wal.Pos) error {
			if typ != wal.TypeSnapshot {
				return nil
			}
			records++
			s, err := wal.DecodeSnapshot(payload)
			if err != nil {
				return err
			}
			if s.K > q || !bytes.Equal(payload, snaps[s.K]) {
				t.Errorf("%s: snapshot record at %d (digest %016x) differs from the oracle's (chain %016x)", name, s.K, s.Digest, chain[min(s.K, q)])
			}
			return nil
		})
		if err != nil || records == 0 {
			t.Fatalf("%s: replaying the log: %d snapshot records, err %v", name, records, err)
		}
	}

	dir := t.TempDir()
	run("uninterrupted", dir, 0)
	checkLog("uninterrupted", dir)
	// A crash after three commits leaves the interval snapshot at 2 and at
	// least instance 3 in the tail: recovery chains the tail onto the
	// stored digest before the session snapshots again.
	for name, opts := range map[string][]SessionOption{
		"recovered pipelined": nil,
		"recovered lockstep":  {WithLockstep()},
	} {
		dir := t.TempDir()
		run(name+" (crash)", dir, 3)
		run(name, dir, 0, opts...)
		checkLog(name, dir)
	}
}
