package wal

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"nab/internal/core"
	"nab/internal/graph"
)

// DigestSeed anchors the committed-sequence chain digest: the digest at
// watermark 0, before any instance committed.
const DigestSeed uint64 = 0x6e61622d64696701 // "nab-dig"

// Snapshot is a decoded TypeSnapshot payload: the engine's dispute state
// at watermark K (core.SnapshotState, generation included) plus the two
// values a log anchors on it. It restores an engine exactly, so recovery
// needs no per-instance replay below it, and a blank node can adopt one
// fetched from peers.
type Snapshot struct {
	core.SnapshotState
	// Epoch is the launch epoch agreed by the last rollback round (0 for
	// single-process sessions, which never roll back).
	Epoch uint64
	// Digest is the committed-sequence chain digest at K (see Chain):
	// identical on every honest process and in every log, which is what
	// lets a joiner cross-validate a fetched snapshot against f+1 peers.
	Digest uint64
}

// AppendSnapshot appends a TypeSnapshot payload to buf. A state taken
// with core.DisputeState.State is in canonical order, so equal states
// encode to equal bytes on every process (join cross-validation needs it).
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
	var s Snapshot
	s.K, s.Epoch, s.Gen = int(d.varint()), d.uvarint(), int(d.varint())
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

// Chain advances the committed-sequence chain digest by one commit, given
// its fold projection as payload: D_k = fnv64a(D_{k-1} || AppendCommitFold(ir_k)), with D_0 = DigestSeed.
// Every log chains the cross-process fold projection, never the full
// commit record, whose per-process fields (local outputs, transfer
// accounting) legitimately differ between hosts: so single-process and
// cluster logs, every honest cluster process and every restore base
// agree on the digest at each watermark.
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
