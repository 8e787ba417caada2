package wal

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nab/internal/graph"
)

// FuzzWALRecord hammers the typed record decoders with raw payloads: they
// must never panic, never allocate absurdly, and every successfully
// decoded commit must re-encode to an equivalent record (no silent field
// loss or aliasing bugs a replay could mis-apply).
func FuzzWALRecord(f *testing.F) {
	f.Add(byte(TypeMeta), AppendMeta(nil, Meta{Fingerprint: 0xfeed, Node: 2}))
	f.Add(byte(TypeSubmit), AppendSubmit(nil, 3, []byte("payload")))
	f.Add(byte(TypeCommit), AppendCommit(nil, sampleIR(5)))
	f.Add(byte(TypeSnapshot), AppendSnapshot(nil, Snapshot{K: 9}))
	f.Add(byte(TypeSnapshot), AppendSnapshot(nil, Snapshot{K: -1, Gen: 2})) // rejected: negative watermark
	f.Add(byte(TypeSnapshot), AppendSnapshot(nil, Snapshot{
		K: 12, Epoch: 2, Gen: 3,
		Disputes: [][2]graph.NodeID{{1, 2}}, Faulty: []graph.NodeID{2, 2},
		Digest: DigestSeed,
	}))
	f.Add(byte(TypeCommit), []byte{})
	f.Add(byte(0xFF), bytes.Repeat([]byte{0x80}, 64)) // unterminated varints
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		switch typ {
		case TypeMeta:
			if m, err := DecodeMeta(payload); err == nil {
				if got, err := DecodeMeta(AppendMeta(nil, m)); err != nil || got != m {
					t.Fatalf("meta re-encode diverged: %+v vs %+v (%v)", m, got, err)
				}
			}
		case TypeSubmit:
			if s, err := DecodeSubmit(payload); err == nil {
				got, err := DecodeSubmit(AppendSubmit(nil, s.K, s.Payload))
				if err != nil || got.K != s.K || !bytes.Equal(got.Payload, s.Payload) {
					t.Fatalf("submit re-encode diverged")
				}
			}
		case TypeCommit:
			if ir, err := DecodeCommit(payload); err == nil {
				got, err := DecodeCommit(AppendCommit(nil, ir))
				if err != nil {
					t.Fatalf("re-encode of decoded commit rejected: %v", err)
				}
				if got.K != ir.K || got.Phase3 != ir.Phase3 || len(got.Outputs) != len(ir.Outputs) ||
					!reflect.DeepEqual(got.NewDisputes, ir.NewDisputes) || !reflect.DeepEqual(got.NewFaulty, ir.NewFaulty) {
					t.Fatalf("commit re-encode diverged: %+v vs %+v", ir, got)
				}
			}
		case TypeSnapshot:
			if s, err := DecodeSnapshot(payload); err == nil {
				seen := map[graph.NodeID]bool{}
				for _, v := range s.Faulty {
					if seen[v] {
						t.Fatalf("snapshot decode surfaced duplicate faulty node %d: %v", v, s.Faulty)
					}
					seen[v] = true
				}
				if s.K < 0 || s.Gen < 0 {
					t.Fatalf("snapshot decode surfaced negative watermark/generation: %+v", s)
				}
				if got, err := DecodeSnapshot(AppendSnapshot(nil, s)); err != nil || !reflect.DeepEqual(got, s) {
					t.Fatalf("snapshot re-encode diverged: %+v vs %+v (%v)", s, got, err)
				}
			}
		}
	})
}

// FuzzSegmentReplay writes arbitrary bytes as a segment file and opens a
// log over it: recovery must never panic, must drop (not mis-replay)
// torn tails and bit-flipped CRCs, and every record it does replay must
// carry a valid checksum — by construction of the scan, a record whose
// CRC does not match its content can never be surfaced.
func FuzzSegmentReplay(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var out []byte
		body := append([]byte{typ}, payload...)
		out = append(out, byte(len(body)), byte(len(body)>>8), byte(len(body)>>16), byte(len(body)>>24))
		crc := crc32.Checksum(body, crcTable)
		out = append(out, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
		return append(out, body...)
	}
	good := frame(TypeSubmit, []byte("alpha"))
	good2 := append(append([]byte(nil), good...), frame(TypeCommit, AppendCommit(nil, sampleIR(1)))...)
	f.Add(good)
	f.Add(good2)
	f.Add(good2[:len(good2)-3]) // torn tail
	flipped := append([]byte(nil), good2...)
	flipped[len(flipped)-2] ^= 0x40 // bit-flipped CRC region
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return // a reported corruption is a valid outcome; crashing is not
		}
		defer l.Close()
		var replayed [][]byte
		rerr := l.Replay(func(typ byte, payload []byte, _ Pos) error {
			replayed = append(replayed, append([]byte{typ}, payload...))
			return nil
		})
		if rerr != nil && !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("replay failed with non-corruption error: %v", rerr)
		}
		// Independently re-scan the (truncated) file: every replayed
		// record must sit at the expected offset with a matching CRC.
		raw, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for i, rec := range replayed {
			if off+headerBytes+len(rec) > len(raw) {
				t.Fatalf("record %d replayed beyond the recovered file", i)
			}
			body := raw[off+headerBytes : off+headerBytes+len(rec)]
			if !bytes.Equal(body, rec) {
				t.Fatalf("record %d content diverged from the file", i)
			}
			wantCRC := uint32(raw[off+4]) | uint32(raw[off+5])<<8 | uint32(raw[off+6])<<16 | uint32(raw[off+7])<<24
			if crc32.Checksum(body, crcTable) != wantCRC {
				t.Fatalf("record %d replayed with a mismatched checksum", i)
			}
			off += headerBytes + len(rec)
		}
		// Appending after any recovered state must keep the log readable.
		if _, err := l.Append(TypeSubmit, []byte("post")); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := l.Replay(func(byte, []byte, Pos) error { n++; return nil }); err != nil {
			t.Fatalf("replay after post-recovery append: %v", err)
		}
		if n != len(replayed)+1 {
			t.Fatalf("post-recovery append lost records: %d vs %d+1", n, len(replayed))
		}
	})
}
