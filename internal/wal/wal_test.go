package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nab/internal/core"
	"nab/internal/graph"
)

// collect replays the whole log into (type, payload-copy) pairs.
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	err := l.Replay(func(typ byte, payload []byte, _ Pos) error {
		out = append(out, Record{Typ: typ, Payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// Record is a test-side decoded record.
type Record struct {
	Typ     byte
	Payload []byte
}

func TestAppendReplayReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{}
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		typ := byte(1 + i%4)
		if _, err := l.Append(typ, p); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Typ: typ, Payload: p})
	}
	if got := collect(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay before close: got %d records, want %d", len(got), len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen, verify, append more, verify again.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen diverged")
	}
	if _, err := l2.AppendSync(9, []byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{Typ: 9, Payload: []byte("after-reopen")})
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen+append diverged")
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return matches[len(matches)-1]
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(TypeCommit, bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: chop a few bytes off the segment, as a crash
	// mid-write would.
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 20, 50} {
		if err := os.WriteFile(seg, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("open with %d-byte tear: %v", cut, err)
		}
		got := collect(t, l2)
		if len(got) != 9 {
			t.Fatalf("tear of %d bytes: replayed %d records, want 9 (torn final dropped)", cut, len(got))
		}
		// The log must accept appends cleanly after the truncation.
		if _, err := l2.Append(TypeCommit, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, l2); len(got) != 10 || string(got[9].Payload) != "fresh" {
			t.Fatalf("tear of %d bytes: append after recovery not replayed", cut)
		}
		l2.Close()
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornWriteAcrossSegments pins the crash mode where the rotation and
// the tear land in different files: the process died after creating a
// fresh segment but before its first record became durable, and the
// previous segment's final record was torn mid-write (the rotation's
// seal write was itself lost). Open must step backward past record-free
// trailing segments, truncate the torn record in the file that really
// holds the tail, and leave a cleanly appendable log — anchoring the
// lenient tail scan to the empty trailing file would instead freeze the
// torn record into a segment where replay is strict, and fail forever.
func TestTornWriteAcrossSegments(t *testing.T) {
	build := func(t *testing.T) (string, []Record, []uint64) {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := l.Append(TypeCommit, bytes.Repeat([]byte{byte(i)}, 30)); err != nil {
				t.Fatal(err)
			}
		}
		var recs []Record
		var segOf []uint64
		err = l.Replay(func(typ byte, p []byte, pos Pos) error {
			recs = append(recs, Record{Typ: typ, Payload: append([]byte(nil), p...)})
			segOf = append(segOf, pos.Seg)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		return dir, recs, segOf
	}

	// trailing mutates the last segment (the one the crash left without a
	// durable record) and returns how the surviving replay must look.
	cases := []struct {
		name     string
		trailing func(t *testing.T, path string)
	}{
		{"empty trailing segment", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing segment with torn first record", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:5], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, recs, segOf := build(t)
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if err != nil || len(segs) < 3 {
				t.Fatalf("need >= 3 segments, have %v (%v)", segs, err)
			}
			final, prev := segs[len(segs)-1], segs[len(segs)-2]
			tc.trailing(t, final)
			// Tear the true tail: chop into the previous segment's last
			// record.
			raw, err := os.ReadFile(prev)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(prev, raw[:len(raw)-7], 0o644); err != nil {
				t.Fatal(err)
			}

			// Survivors: everything before the final segment, minus the
			// previous segment's torn last record.
			finalSeg := segOf[len(segOf)-1]
			var want []Record
			for i, r := range recs {
				if segOf[i] < finalSeg {
					want = append(want, r)
				}
			}
			want = want[:len(want)-1]

			l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
			if err != nil {
				t.Fatalf("open after cross-segment tear: %v", err)
			}
			defer l.Close()
			if got := collect(t, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %d records, want %d (torn tail + dead trailing segment dropped)", len(got), len(want))
			}
			// The log must append and survive another reopen cleanly.
			if _, err := l.AppendSync(TypeCommit, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			l2, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			got := collect(t, l2)
			if len(got) != len(want)+1 || string(got[len(got)-1].Payload) != "fresh" {
				t.Fatalf("append after recovery lost: %d records", len(got))
			}
		})
	}
}

func TestBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(TypeSubmit, bytes.Repeat([]byte{0xAA}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the LAST record's payload: recovery treats it as
	// a torn tail — dropped, never replayed with damaged content.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0x01
	if err := os.WriteFile(seg, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2)
	l2.Close()
	if len(got) != 4 {
		t.Fatalf("bit-flipped final record: replayed %d records, want 4", len(got))
	}
	for _, r := range got {
		if !bytes.Equal(r.Payload, bytes.Repeat([]byte{0xAA}, 40)) {
			t.Fatalf("a damaged record was mis-replayed: %x", r.Payload)
		}
	}

	// Flip a bit in an EARLIER record: that is not a tail tear, and the
	// replay must fail loudly instead of skipping it.
	flipped = append([]byte(nil), raw...)
	flipped[headerBytes+5] ^= 0x80
	if err := os.WriteFile(seg, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	// The flip invalidates record 0; recovery truncates there, so only
	// the damage is dropped — and nothing damaged is ever surfaced.
	for _, r := range collect(t, l3) {
		if !bytes.Equal(r.Payload, bytes.Repeat([]byte{0xAA}, 40)) {
			t.Fatalf("a damaged record was mis-replayed: %x", r.Payload)
		}
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var mark Pos
	for i := 0; i < 60; i++ {
		pos, err := l.Append(TypeCommit, bytes.Repeat([]byte{byte(i)}, 30))
		if err != nil {
			t.Fatal(err)
		}
		if i == 40 {
			mark = pos
		}
	}
	segs, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	if mark.Seg <= segs[0] {
		t.Fatalf("compaction mark %d not past first segment %d", mark.Seg, segs[0])
	}
	if err := l.Compact(mark); err != nil {
		t.Fatal(err)
	}
	after, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != mark.Seg {
		t.Fatalf("compaction kept segment %d, want oldest %d", after[0], mark.Seg)
	}
	// Replay still works over the surviving suffix.
	var first byte
	seen := 0
	l.Replay(func(_ byte, payload []byte, _ Pos) error {
		if seen == 0 {
			first = payload[0]
		}
		seen++
		return nil
	})
	if seen == 0 || seen >= 60 {
		t.Fatalf("post-compaction replay saw %d records", seen)
	}
	if first > 41 {
		t.Fatalf("compaction dropped the marked segment (first surviving record %d)", first)
	}
}

func TestGroupCommitSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			_, err := l.AppendSync(TypeSubmit, []byte{byte(i)})
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, l); len(got) != 16 {
		t.Fatalf("synced %d records, want 16", len(got))
	}
}

func sampleIR(k int) *core.InstanceResult {
	return &core.InstanceResult{
		K: k, Gamma: 6, Rho: 3, SymBits: 9, Stripes: 2,
		Outputs: map[graph.NodeID][]byte{
			1: bytes.Repeat([]byte{0x17}, 24),
			2: bytes.Repeat([]byte{0x2a}, 24),
			4: bytes.Repeat([]byte{0x99}, 24),
		},
		Mismatch: true, Phase3: true,
		NewDisputes: [][2]graph.NodeID{{2, 3}, {1, 3}},
		NewFaulty:   []graph.NodeID{3},
		SchemeTries: 2, Phase1Time: 12.5, Phase1SFTime: 30, Phase1Rounds: 4,
		EqualityTime: 3.25, FlagTime: 9, DisputeTime: 17,
		TotalBits: 4096, ExcludedNodes: 1, Phase1Only: false,
	}
}

func TestCommitCodecRoundTrip(t *testing.T) {
	for _, ir := range []*core.InstanceResult{
		sampleIR(7),
		{K: 1},
		{K: 3, Outputs: map[graph.NodeID][]byte{5: nil, 6: {}}},
	} {
		buf := AppendCommit(nil, ir)
		got, err := DecodeCommit(buf)
		if err != nil {
			t.Fatalf("decode k=%d: %v", ir.K, err)
		}
		// nil and empty outputs are equivalent on the wire.
		norm := func(m map[graph.NodeID][]byte) map[graph.NodeID]string {
			if len(m) == 0 {
				return nil
			}
			out := map[graph.NodeID]string{}
			for v, b := range m {
				out[v] = string(b)
			}
			return out
		}
		if !reflect.DeepEqual(norm(ir.Outputs), norm(got.Outputs)) {
			t.Fatalf("outputs diverged: %v vs %v", ir.Outputs, got.Outputs)
		}
		ir2, got2 := *ir, *got
		ir2.Outputs, got2.Outputs = nil, nil
		if !reflect.DeepEqual(ir2, got2) {
			t.Fatalf("commit round trip diverged:\n%+v\n%+v", ir2, got2)
		}
	}
}

func TestMetaSubmitCodecs(t *testing.T) {
	m := Meta{Fingerprint: Fingerprint("1 2 3\n2 1 3\n", 1, 1, 24, 7, "3=alarm;"), Node: 3}
	gm, err := DecodeMeta(AppendMeta(nil, m))
	if err != nil || gm != m {
		t.Fatalf("meta round trip: %+v %v", gm, err)
	}
	if Fingerprint("1 2 3\n", 1, 1, 24, 7, "") == Fingerprint("1 2 3\n", 1, 1, 24, 8, "") {
		t.Fatal("fingerprint ignores seed")
	}
	if Fingerprint("1 2 3\n", 1, 1, 24, 7, "3=flip;") == Fingerprint("1 2 3\n", 1, 1, 24, 7, "") {
		t.Fatal("fingerprint ignores the adversary assignment")
	}

	s := Submit{K: 12, Payload: []byte("hello world")}
	gs, err := DecodeSubmit(AppendSubmit(nil, s.K, s.Payload))
	if err != nil || gs.K != s.K || !bytes.Equal(gs.Payload, s.Payload) {
		t.Fatalf("submit round trip: %+v %v", gs, err)
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := Snapshot{
		K: 40, Epoch: 3, Gen: 5,
		Disputes: [][2]graph.NodeID{{3, 1}, {1, 2}},
		Faulty:   []graph.NodeID{4, 3},
		Digest:   0xfeedbeefcafe,
	}
	s.Canonicalize()
	if s.Disputes[0] != [2]graph.NodeID{1, 2} || s.Faulty[0] != 3 {
		t.Fatalf("canonicalize did not sort: %+v", s)
	}
	got, err := DecodeSnapshot(AppendSnapshot(nil, s))
	if err != nil || !reflect.DeepEqual(got, s) {
		t.Fatalf("snapshot round trip: %+v vs %+v (%v)", got, s, err)
	}
	// Canonical bytes are order-independent: the payload a joiner hashes
	// must not depend on accumulation order.
	shuffled := Snapshot{
		K: 40, Epoch: 3, Gen: 5,
		Disputes: [][2]graph.NodeID{{1, 2}, {3, 1}},
		Faulty:   []graph.NodeID{3, 4},
		Digest:   0xfeedbeefcafe,
	}
	shuffled.Canonicalize()
	if !bytes.Equal(AppendSnapshot(nil, shuffled), AppendSnapshot(nil, s)) {
		t.Fatal("canonical snapshot bytes depend on accumulation order")
	}

	// Duplicate-Faulty entries (hostile or corrupt encoder) are dropped on
	// decode, never inflating the restored set.
	dup := AppendSnapshot(nil, Snapshot{K: 2, Faulty: []graph.NodeID{4, 4, 2, 4}})
	ds, err := DecodeSnapshot(dup)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Faulty, []graph.NodeID{4, 2}) {
		t.Fatalf("duplicate faulty entries survived decode: %v", ds.Faulty)
	}

	// Negative watermark/generation are rejected outright.
	if _, err := DecodeSnapshot(AppendSnapshot(nil, Snapshot{K: -1})); err == nil {
		t.Fatal("negative watermark decoded")
	}

}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := AppendCommit(nil, sampleIR(9))
	for cut := 1; cut < len(full); cut += 3 {
		if _, err := DecodeCommit(full[:len(full)-cut]); err == nil {
			t.Fatalf("truncation of %d bytes decoded successfully", cut)
		}
	}
	if _, err := DecodeCommit(append(full, 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

// TestWALCommitAppendZeroAlloc pins the acceptance criterion: encoding
// and appending a commit record in steady state allocates nothing.
func TestWALCommitAppendZeroAlloc(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ir := sampleIR(3)
	buf := make([]byte, 0, 1024)
	var failed error
	allocs := testing.AllocsPerRun(2000, func() {
		buf = AppendCommit(buf[:0], ir)
		if _, err := l.Append(TypeCommit, buf); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Fatalf("commit append allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkWALAppendCommit(b *testing.B) {
	l, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ir := sampleIR(3)
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendCommit(buf[:0], ir)
		if _, err := l.Append(TypeCommit, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppendSyncBatched(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0x42}, 128)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.AppendSync(TypeSubmit, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
