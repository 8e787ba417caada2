package wal

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"nab/internal/graph"
)

// DigestSeed anchors the committed-sequence chain digest: the digest at
// watermark 0, before any instance committed.
const DigestSeed uint64 = 0x6e61622d64696701 // "nab-dig"

// Snapshot is a decoded TypeSnapshot payload. It restores an engine
// exactly — generation included — so recovery needs no per-instance
// replay below it, and a blank node can adopt one fetched from peers.
type Snapshot struct {
	// K is the commit watermark the state was captured at.
	K int
	// Epoch is the launch epoch agreed by the last rollback round (0 for
	// single-process sessions, which never roll back).
	Epoch uint64
	// Gen is the dispute-graph generation at K — the number of
	// Phase 3 folds that made progress. Plan-cache seeds derive from it,
	// so restoring it exactly keeps coding schemes byte-identical across
	// processes that restored from different bases.
	Gen int
	// Disputes/Faulty are the accumulated dispute pairs (MarkFaulty
	// expansions included) and proven-faulty nodes, in canonical sorted
	// order.
	Disputes [][2]graph.NodeID
	Faulty   []graph.NodeID
	// Digest is the committed-sequence chain digest at K (see Chain):
	// identical on every honest process, which is what lets a joiner
	// cross-validate a fetched snapshot against f+1 peers.
	Digest uint64
}

// Canonicalize sorts Disputes and Faulty into the canonical encoding
// order, so AppendSnapshot yields byte-identical payloads for equal
// states regardless of how they were accumulated.
func (s *Snapshot) Canonicalize() {
	sort.Slice(s.Disputes, func(i, j int) bool {
		if s.Disputes[i][0] != s.Disputes[j][0] {
			return s.Disputes[i][0] < s.Disputes[j][0]
		}
		return s.Disputes[i][1] < s.Disputes[j][1]
	})
	sort.Slice(s.Faulty, func(i, j int) bool { return s.Faulty[i] < s.Faulty[j] })
}

// AppendSnapshot appends a TypeSnapshot payload to buf. Call
// Canonicalize first when the payload bytes must be comparable across
// processes (digest cross-validation does).
//
//nab:allocfree
func AppendSnapshot(buf []byte, s Snapshot) []byte {
	buf = binary.AppendVarint(buf, int64(s.K))
	buf = binary.AppendUvarint(buf, s.Epoch)
	buf = binary.AppendVarint(buf, int64(s.Gen))
	buf = binary.AppendUvarint(buf, uint64(len(s.Disputes)))
	for _, p := range s.Disputes {
		buf = binary.AppendVarint(buf, int64(p[0]))
		buf = binary.AppendVarint(buf, int64(p[1]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Faulty)))
	for _, v := range s.Faulty {
		buf = binary.AppendVarint(buf, int64(v))
	}
	buf = binary.AppendUvarint(buf, s.Digest)
	return buf
}

// DecodeSnapshot decodes a TypeSnapshot payload. Duplicate entries in
// the Faulty set are dropped (a node is proven faulty once; a corrupt or
// hostile encoder must not inflate the set).
func DecodeSnapshot(b []byte) (Snapshot, error) {
	d := decoder{b: b}
	s := Snapshot{K: int(d.varint()), Epoch: d.uvarint(), Gen: int(d.varint())}
	nd := d.count(2)
	for i := uint64(0); i < nd && d.err == nil; i++ {
		s.Disputes = append(s.Disputes, [2]graph.NodeID{
			graph.NodeID(d.varint()), graph.NodeID(d.varint()),
		})
	}
	nf := d.count(1)
	for i := uint64(0); i < nf && d.err == nil; i++ {
		s.Faulty = appendFaulty(s.Faulty, graph.NodeID(d.varint()))
	}
	s.Digest = d.uvarint()
	if s.K < 0 || s.Gen < 0 {
		return Snapshot{}, fmt.Errorf("wal: snapshot record: negative watermark or generation")
	}
	return s, d.finish("snapshot")
}

// Chain advances the committed-sequence chain digest by one record
// payload: D_k = fnv64a(D_{k-1} || payload), with D_0 = DigestSeed. The
// session log chains full TypeCommit payloads; cluster processes chain
// the cross-process fold projection (AppendCommitFold) instead, since
// full commit records carry per-process fields (local outputs, transfer
// accounting) that legitimately differ between hosts.
func Chain(prev uint64, payload []byte) uint64 {
	h := fnv.New64a()
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], prev)
	h.Write(p[:])
	h.Write(payload)
	return h.Sum64()
}

func appendFaulty(list []graph.NodeID, v graph.NodeID) []graph.NodeID {
	for _, have := range list {
		if have == v {
			return list
		}
	}
	return append(list, v)
}
