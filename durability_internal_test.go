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
	g := topo.CompleteBi(4, 1)
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
		snap := wal.Snapshot{K: 4, Digest: wal.DigestSeed}
		snap.Canonicalize()
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

	sl, rec, err := openSessionLog(&durabilityOptions{dir: build(5), resume: true}, fp, node, g, true)
	if err != nil {
		t.Fatalf("contiguous anchored tail failed to recover: %v", err)
	}
	if rec.k != 5 || rec.base.K != 4 || len(rec.foldList) != 1 {
		t.Fatalf("contiguous recovery: k=%d base=%v folds=%d, want k=5 base.K=4 folds=1", rec.k, rec.base, len(rec.foldList))
	}
	sl.close()

	if _, _, err := openSessionLog(&durabilityOptions{dir: build(6), resume: true}, fp, node, g, true); err == nil || !strings.Contains(err.Error(), "does not extend the anchor") {
		t.Fatalf("orphaned (anchor, commit) range recovered: err = %v", err)
	}
}

// TestFloorSnapshotKeepsCommitTail drives a cluster-mode session log the
// way a rollback floor does — a snapshot persisted well behind the
// committed watermark — over tiny rotating segments. Compaction must keep
// every segment holding a commit above the floor (dropping the prefix
// below it), and recovery must restore the full (floor, watermark] fold
// with the lineage digest chained from the floor over the replayed
// payload bytes.
func TestFloorSnapshotKeepsCommitTail(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	const fp, node = uint64(7), int64(2)
	const floorK, w = 4, 12
	dir := t.TempDir()
	o := &durabilityOptions{dir: dir, resume: true, segmentBytes: 256}
	sl, _, err := openSessionLog(o, fp, node, g, true)
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
	if err := sl.persistFloor(wal.Snapshot{K: floorK, Digest: 0xfee1}); err != nil {
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

	sl2, rec, err := openSessionLog(o, fp, node, g, true)
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
	want := uint64(0xfee1)
	for k := floorK + 1; k <= w; k++ {
		want = wal.Chain(want, wal.AppendCommit(nil, &core.InstanceResult{K: k}))
	}
	if sl2.digest != want {
		t.Errorf("recovered lineage digest %x, want %x (floor digest chained over the replayed tail)", sl2.digest, want)
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
