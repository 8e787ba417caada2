package wal

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"nab/internal/core"
	"nab/internal/graph"
)

// Record types of NAB's durable session log.
const (
	// TypeMeta opens every log: the session/config fingerprint replay is
	// validated against, so a WAL cannot silently resume a different
	// cluster or topology.
	TypeMeta byte = 0x01
	// TypeSubmit is one accepted submission: instance number + payload.
	// It is made durable before Submit acknowledges.
	TypeSubmit byte = 0x02
	// TypeCommit is one committed instance: the full InstanceResult,
	// appended before the commit is delivered to the consumer.
	TypeCommit byte = 0x03
	// TypeSnapshot is the full cross-instance engine state at a commit
	// watermark (see Snapshot); segments before the latest snapshot are
	// compactable. 0x04, a retired dispute-only checkpoint record, is not
	// reused: recovery rejects it as an unknown type.
	TypeSnapshot byte = 0x05
)

// Meta identifies the session a log belongs to.
type Meta struct {
	// Fingerprint ties the log to one configuration (see Fingerprint).
	Fingerprint uint64
	// Node is the hosting node id for cluster processes, -1 for
	// single-process sessions (topology node ids are positive, so the
	// sentinel can never collide).
	Node int64
}

// Fingerprint hashes the replay-relevant configuration: the marshaled
// topology, source, fault bound, input size, seed and the adversary
// assignment (committed sequences depend on who misbehaves — restarting
// under a different assignment would silently break byte-identity).
// Engines with the same fingerprint commit byte-identical sequences for
// identical submissions, which is exactly what makes a WAL
// transplantable across restarts (and nothing else). adversaries is a
// caller-derived canonical string — cluster sessions use the config's
// node=spec list, in-process sessions the node=type list (a best effort:
// two adversaries of one type with different internal parameters hash
// alike).
func Fingerprint(topology string, source graph.NodeID, f, lenBytes int, seed int64, adversaries string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(topology))
	h.Write([]byte{0})
	h.Write([]byte(adversaries))
	h.Write([]byte{0})
	var tail [40]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(int64(source)))
	binary.LittleEndian.PutUint64(tail[8:16], uint64(int64(f)))
	binary.LittleEndian.PutUint64(tail[16:24], uint64(int64(lenBytes)))
	binary.LittleEndian.PutUint64(tail[24:32], uint64(seed))
	binary.LittleEndian.PutUint64(tail[32:40], 0x6e61622d77616c00) // "nab-wal"
	h.Write(tail[:])
	return h.Sum64()
}

// Submit is a decoded TypeSubmit record.
type Submit struct {
	K       int
	Payload []byte
}

// AppendMeta appends a TypeMeta payload to buf.
//
//nab:allocfree
func AppendMeta(buf []byte, m Meta) []byte {
	buf = binary.AppendUvarint(buf, m.Fingerprint)
	buf = binary.AppendVarint(buf, m.Node)
	return buf
}

// DecodeMeta decodes a TypeMeta payload.
func DecodeMeta(b []byte) (Meta, error) {
	d := decoder{b: b}
	m := Meta{Fingerprint: d.uvarint(), Node: d.varint()}
	return m, d.finish("meta")
}

// AppendSubmit appends a TypeSubmit payload to buf.
//
//nab:allocfree
func AppendSubmit(buf []byte, k int, payload []byte) []byte {
	buf = binary.AppendVarint(buf, int64(k))
	return append(buf, payload...)
}

// DecodeSubmit decodes a TypeSubmit payload. The payload slice aliases b.
func DecodeSubmit(b []byte) (Submit, error) {
	d := decoder{b: b}
	k := d.varint()
	if d.err != nil {
		return Submit{}, d.wrap("submit")
	}
	return Submit{K: int(k), Payload: d.rest()}, nil
}

// AppendCommitFold appends the cross-process fold projection of a
// commit: the fields every process of a cluster commits identically for
// instance K — the schedule outcome and the Phase 3 findings that drive
// dispute-state evolution. Per-process fields (local outputs, timings,
// transfer accounting) are excluded, so the bytes — and the chain digest
// built over them — agree across hosts and across restore bases.
//
//nab:allocfree
func AppendCommitFold(buf []byte, ir *core.InstanceResult) []byte {
	buf = binary.AppendVarint(buf, int64(ir.K))
	buf = appendBool(buf, ir.Mismatch)
	buf = appendBool(buf, ir.Phase3)
	buf = binary.AppendUvarint(buf, uint64(len(ir.NewDisputes)))
	for _, p := range ir.NewDisputes {
		buf = binary.AppendVarint(buf, int64(p[0]))
		buf = binary.AppendVarint(buf, int64(p[1]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ir.NewFaulty)))
	for _, v := range ir.NewFaulty {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// maxInlineOutputs is the stack budget for sorting a commit's output keys
// without allocating; larger maps (none of the shipped topologies come
// close) fall back to a heap slice.
const maxInlineOutputs = 64

// AppendCommit appends a TypeCommit payload — the full InstanceResult —
// to buf. The steady-state path (buf with capacity, <= maxInlineOutputs
// outputs) performs no allocation, which keeps the commit hot path
// alloc-free end to end.
//
//nab:allocfree
func AppendCommit(buf []byte, ir *core.InstanceResult) []byte {
	buf = binary.AppendVarint(buf, int64(ir.K))
	buf = binary.AppendVarint(buf, ir.Gamma)
	buf = binary.AppendVarint(buf, int64(ir.Rho))
	buf = binary.AppendUvarint(buf, uint64(ir.SymBits))
	buf = binary.AppendVarint(buf, int64(ir.Stripes))
	buf = appendBool(buf, ir.Mismatch)
	buf = appendBool(buf, ir.Phase3)
	buf = appendBool(buf, ir.Phase1Only)
	buf = binary.AppendVarint(buf, int64(ir.SchemeTries))
	buf = binary.AppendVarint(buf, int64(ir.Phase1Rounds))
	buf = binary.AppendVarint(buf, int64(ir.ExcludedNodes))
	buf = binary.AppendVarint(buf, ir.TotalBits)
	for _, t := range [...]float64{ir.Phase1Time, ir.Phase1SFTime, ir.EqualityTime, ir.FlagTime, ir.DisputeTime} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	}

	var inline [maxInlineOutputs]graph.NodeID
	keys := inline[:0]
	if len(ir.Outputs) > maxInlineOutputs {
		//nab:ignore allocfree -- cold fallback past the inline budget; no shipped topology exceeds maxInlineOutputs
		keys = make([]graph.NodeID, 0, len(ir.Outputs))
	}
	for v := range ir.Outputs {
		keys = append(keys, v)
	}
	// Insertion sort: key sets are tiny and this keeps sort.Slice's
	// closure allocation off the hot path.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, v := range keys {
		out := ir.Outputs[v]
		buf = binary.AppendVarint(buf, int64(v))
		buf = binary.AppendUvarint(buf, uint64(len(out)))
		buf = append(buf, out...)
	}

	buf = binary.AppendUvarint(buf, uint64(len(ir.NewDisputes)))
	for _, p := range ir.NewDisputes {
		buf = binary.AppendVarint(buf, int64(p[0]))
		buf = binary.AppendVarint(buf, int64(p[1]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ir.NewFaulty)))
	for _, v := range ir.NewFaulty {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// DecodeCommit decodes a TypeCommit payload into a fresh InstanceResult.
func DecodeCommit(b []byte) (*core.InstanceResult, error) {
	d := decoder{b: b}
	ir := &core.InstanceResult{
		K:       int(d.varint()),
		Gamma:   d.varint(),
		Rho:     int(d.varint()),
		SymBits: uint(d.uvarint()),
		Stripes: int(d.varint()),
	}
	ir.Mismatch = d.bool()
	ir.Phase3 = d.bool()
	ir.Phase1Only = d.bool()
	ir.SchemeTries = int(d.varint())
	ir.Phase1Rounds = int(d.varint())
	ir.ExcludedNodes = int(d.varint())
	ir.TotalBits = d.varint()
	ir.Phase1Time = d.float()
	ir.Phase1SFTime = d.float()
	ir.EqualityTime = d.float()
	ir.FlagTime = d.float()
	ir.DisputeTime = d.float()

	no := d.count(2)
	if no > 0 && d.err == nil {
		ir.Outputs = make(map[graph.NodeID][]byte, no)
	}
	for i := uint64(0); i < no && d.err == nil; i++ {
		v := graph.NodeID(d.varint())
		ir.Outputs[v] = d.bytes()
	}
	nd := d.count(2)
	for i := uint64(0); i < nd && d.err == nil; i++ {
		ir.NewDisputes = append(ir.NewDisputes, [2]graph.NodeID{
			graph.NodeID(d.varint()), graph.NodeID(d.varint()),
		})
	}
	nf := d.count(1)
	for i := uint64(0); i < nf && d.err == nil; i++ {
		ir.NewFaulty = append(ir.NewFaulty, graph.NodeID(d.varint()))
	}
	if err := d.finish("commit"); err != nil {
		return nil, err
	}
	return ir, nil
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// decoder is a bounds-checked cursor over one record payload. The first
// violation latches err and every later read yields zero values, so
// callers can decode a full struct and check once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or malformed field")
	}
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a collection length and rejects one that cannot fit in the
// remaining bytes at minBytes per element — the guard that keeps a
// corrupt record from inducing a huge allocation.
func (d *decoder) count(minBytes int) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/minBytes+1) {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 || d.b[0] > 1 {
		d.fail()
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// bytes reads a length-prefixed byte string, copying out of the record
// buffer (records are reused across Replay calls).
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	out := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return out
}

// rest returns the remaining payload.
func (d *decoder) rest() []byte { return d.b }

func (d *decoder) finish(what string) error {
	if err := d.wrap(what); err != nil {
		return err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wal: %s record: %d trailing bytes", what, len(d.b))
	}
	return nil
}

func (d *decoder) wrap(what string) error {
	if d.err != nil {
		return fmt.Errorf("wal: %s record: %w", what, d.err)
	}
	return nil
}
