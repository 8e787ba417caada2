package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"nab/internal/core"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/relay"
)

// Wire format: every frame is a 4-byte big-endian length followed by a
// fixed header and a kind-tagged body, all encoding/binary big-endian.
//
//	header:      u64 instance | u32 step | i64 from | i64 to | i64 bits |
//	             u8 kind
//	kindNone:    (no payload; nil bodies)
//	kindRaw:     raw bytes
//	kindPhase1:  u32 tree | u32 bitlen | u32 nbytes | bytes
//	kindEq:      u32 count | count x u64 symbols
//	kindRelay:   i64 origin | i64 dest | i32 pathIdx | i32 hop |
//	             u32 idlen | msgID | u32 plen | payload
//	kindPackets: u32 count | count x (i64 bits | u32 n | u8 kind |
//	             n-1 payload bytes of that kind)
//
// These cover every body the NAB phases put on a link: Phase-1 tree blocks
// (core.Phase1Msg), Phase-2 equality-check symbol vectors (core.EqMsg),
// and relay path copies (*relay.Packet, each decoded as a new packet)
// carrying both step-2.2 flag broadcasts and Phase-3 dispute-control
// transcripts — each travelling as one packet of a step frame
// (Message.Packets), whose header bits are the sum of its packets' bits.
// A frame with non-nil Packets encodes as kindPackets and decodes back to
// a non-nil list, an empty one included; any other frame encodes its one
// Body. Packet lists do not nest.
const (
	kindNone    = 0
	kindRaw     = 1
	kindPhase1  = 2
	kindEq      = 3
	kindRelay   = 4
	kindPackets = 5

	// MaxFrameBytes bounds a decoded frame; larger claims are garbage.
	MaxFrameBytes = 1 << 26
)

// headerBytes is the fixed frame header plus the kind tag; packetPrefix
// is a packet's bits, size and kind tag.
const (
	headerBytes  = 8 + 4 + 8 + 8 + 8 + 1
	packetPrefix = 8 + 4 + 1
)

// appendMessage appends m's encoding to buf and returns the extended
// slice.
//
//nab:allocfree
func appendMessage(buf []byte, m *Message) ([]byte, error) {
	buf = binary.BigEndian.AppendUint64(buf, m.Instance)
	buf = binary.BigEndian.AppendUint32(buf, m.Step)
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(m.From)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(m.To)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Bits))
	if m.Packets == nil {
		return appendBody(buf, m.Body)
	}
	if m.Body != nil {
		return nil, fmt.Errorf("transport: step frame also carries a %T body", m.Body)
	}
	buf = append(buf, kindPackets)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Packets)))
	var sum int64
	for _, p := range m.Packets {
		if p.Bits < 0 || p.Bits > math.MaxInt64-sum {
			return nil, fmt.Errorf("transport: packet charge %d invalid after %d bits", p.Bits, sum)
		}
		sum += p.Bits
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.Bits))
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0) // packet size, patched below
		var err error
		if buf, err = appendBody(buf, p.Body); err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	if sum != m.Bits {
		return nil, fmt.Errorf("transport: packets charge %d bits, frame %d", sum, m.Bits)
	}
	return buf, nil
}

// appendBody appends one single body — kind tag, then payload.
//
//nab:allocfree
func appendBody(buf []byte, body any) ([]byte, error) {
	switch body := body.(type) {
	case nil:
		buf = append(buf, kindNone)
	case []byte:
		buf = append(buf, kindRaw)
		buf = append(buf, body...)
	case core.Phase1Msg:
		buf = append(buf, kindPhase1)
		buf = binary.BigEndian.AppendUint32(buf, uint32(body.Tree))
		buf = binary.BigEndian.AppendUint32(buf, uint32(body.Block.BitLen))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(body.Block.Bytes)))
		buf = append(buf, body.Block.Bytes...)
	case core.EqMsg:
		buf = append(buf, kindEq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(body.Symbols)))
		for _, s := range body.Symbols {
			buf = binary.BigEndian.AppendUint64(buf, uint64(s))
		}
	case *relay.Packet:
		if body == nil {
			return nil, fmt.Errorf("transport: nil relay packet")
		}
		buf = append(buf, kindRelay)
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(body.Origin)))
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(body.Dest)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(body.PathIdx)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(body.Hop)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(body.MsgID)))
		buf = append(buf, body.MsgID...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(body.Payload)))
		buf = append(buf, body.Payload...)
	default:
		return nil, fmt.Errorf("transport: cannot encode body type %T", body)
	}
	return buf, nil
}

// Decode parses a frame produced by AppendFrame, without its length
// prefix. It accepts exactly what AppendFrame emits: a body must fill its
// frame, and a step frame's packets must be single bodies with
// non-negative charges summing to the header's bits.
func Decode(raw []byte) (*Message, error) {
	if len(raw) < headerBytes {
		return nil, fmt.Errorf("transport: frame too short (%d bytes)", len(raw))
	}
	m := &Message{
		Instance: binary.BigEndian.Uint64(raw),
		Step:     binary.BigEndian.Uint32(raw[8:]),
		From:     graph.NodeID(int64(binary.BigEndian.Uint64(raw[12:]))),
		To:       graph.NodeID(int64(binary.BigEndian.Uint64(raw[20:]))),
		Bits:     int64(binary.BigEndian.Uint64(raw[28:])),
	}
	var err error
	if kind := raw[headerBytes-1]; kind == kindPackets {
		m.Packets, err = decodePackets(raw[headerBytes:], m.Bits)
	} else {
		m.Body, err = decodeBody(kind, raw[headerBytes:], nil)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// decodePackets parses a step frame's packet list. A relay packet whose
// payload equals the previous relay packet's shares its decoded copy: a
// node sends one report to many destinations, and the path copies whose
// first hop is the same neighbour travel side by side in one frame.
func decodePackets(b []byte, bits int64) ([]Packet, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("transport: truncated packet count (%d bytes)", len(b))
	}
	count := binary.BigEndian.Uint32(b)
	b = b[4:]
	// Every packet costs at least its prefix, so a count the remaining
	// bytes cannot hold is garbage — rejected before allocating for it.
	if uint64(count) > uint64(len(b))/packetPrefix {
		return nil, fmt.Errorf("transport: %d packets in %d bytes", count, len(b))
	}
	pkts := make([]Packet, count)
	var sum int64
	var payload []byte // the last relay payload decoded
	for i := range pkts {
		if len(b) < packetPrefix {
			return nil, fmt.Errorf("transport: truncated packet %d", i)
		}
		p := int64(binary.BigEndian.Uint64(b))
		n := binary.BigEndian.Uint32(b[8:])
		b = b[12:]
		if p < 0 || p > math.MaxInt64-sum {
			return nil, fmt.Errorf("transport: packet %d charge %d invalid after %d bits", i, p, sum)
		}
		sum += p
		if n == 0 || uint64(n) > uint64(len(b)) {
			return nil, fmt.Errorf("transport: packet %d of %d bytes in %d", i, n, len(b))
		}
		if b[0] == kindPackets {
			return nil, fmt.Errorf("transport: nested packet list in packet %d", i)
		}
		body, err := decodeBody(b[0], b[1:n], payload)
		if err != nil {
			return nil, err
		}
		if pkt, ok := body.(*relay.Packet); ok {
			payload = pkt.Payload
		}
		pkts[i] = Packet{Bits: p, Body: body}
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("transport: %d bytes after the last packet", len(b))
	}
	if sum != bits {
		return nil, fmt.Errorf("transport: packets charge %d bits, frame %d", sum, bits)
	}
	return pkts, nil
}

// decodeBody parses one single body of the given kind, which must fill b
// exactly. A relay payload equal to shared is decoded as shared itself;
// a sent relay packet is immutable, so equal payloads may share bytes.
func decodeBody(kind byte, b []byte, shared []byte) (any, error) {
	switch kind {
	case kindNone:
		if len(b) != 0 {
			return nil, fmt.Errorf("transport: %d payload bytes on an empty body", len(b))
		}
		return nil, nil
	case kindRaw:
		return append([]byte(nil), b...), nil
	case kindPhase1:
		if len(b) < 12 {
			return nil, fmt.Errorf("transport: truncated phase-1 body (%d bytes)", len(b))
		}
		tree := int(int32(binary.BigEndian.Uint32(b)))
		bitLen := int(int32(binary.BigEndian.Uint32(b[4:])))
		if nb := binary.BigEndian.Uint32(b[8:]); uint64(nb) != uint64(len(b)-12) {
			return nil, fmt.Errorf("transport: phase-1 block of %d bytes in %d", nb, len(b)-12)
		}
		return core.Phase1Msg{
			Tree:  tree,
			Block: core.BitChunk{Bytes: append([]byte(nil), b[12:]...), BitLen: bitLen},
		}, nil
	case kindEq:
		if len(b) < 4 {
			return nil, fmt.Errorf("transport: truncated symbol count (%d bytes)", len(b))
		}
		count := binary.BigEndian.Uint32(b)
		if uint64(count)*8 != uint64(len(b)-4) {
			return nil, fmt.Errorf("transport: %d symbols in %d bytes", count, len(b)-4)
		}
		syms := make([]gf.Elem, count)
		for i := range syms {
			syms[i] = gf.Elem(binary.BigEndian.Uint64(b[4+8*i:]))
		}
		return core.EqMsg{Symbols: syms}, nil
	case kindRelay:
		if len(b) < 28 {
			return nil, fmt.Errorf("transport: truncated relay body (%d bytes)", len(b))
		}
		pkt := &relay.Packet{
			Origin:  graph.NodeID(int64(binary.BigEndian.Uint64(b))),
			Dest:    graph.NodeID(int64(binary.BigEndian.Uint64(b[8:]))),
			PathIdx: int(int32(binary.BigEndian.Uint32(b[16:]))),
			Hop:     int(int32(binary.BigEndian.Uint32(b[20:]))),
		}
		idLen := binary.BigEndian.Uint32(b[24:])
		rest := b[28:]
		if uint64(idLen)+4 > uint64(len(rest)) {
			return nil, fmt.Errorf("transport: relay message id of %d bytes in %d", idLen, len(rest))
		}
		pkt.MsgID = string(rest[:idLen])
		plen := binary.BigEndian.Uint32(rest[idLen:])
		rest = rest[idLen+4:]
		if uint64(plen) != uint64(len(rest)) {
			return nil, fmt.Errorf("transport: relay payload of %d bytes in %d", plen, len(rest))
		}
		if shared != nil && bytes.Equal(shared, rest) {
			pkt.Payload = shared
		} else {
			pkt.Payload = append([]byte(nil), rest...)
		}
		return pkt, nil
	}
	return nil, fmt.Errorf("transport: unknown payload kind %d (%d payload bytes)", kind, len(b))
}

// AppendFrame appends the length-prefixed encoding of m to dst and returns
// the extended slice; on error dst is returned unchanged.
//
//nab:allocfree
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	out, err := appendMessage(dst, m)
	if err != nil {
		return dst[:start], err
	}
	n := len(out) - start - 4
	if n > MaxFrameBytes {
		return dst[:start], fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// frameBufPool recycles encode and read scratch across frames; steady-state
// framing allocates only the decoded Message and its body. Oversized
// buffers are dropped rather than pooled so one giant frame does not pin
// its memory forever.
var frameBufPool = sync.Pool{
	New: func() any {
		buf := make([]byte, 0, 512)
		return &buf
	},
}

const maxPooledBuf = 1 << 16

func putFrameBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		frameBufPool.Put(bp)
	}
}

// WriteFrame writes the length-prefixed encoding of m to w as a single
// Write from a pooled buffer.
func WriteFrame(w io.Writer, m *Message) error {
	bp := frameBufPool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], m)
	if err == nil {
		_, err = w.Write(buf)
	}
	putFrameBuf(bp, buf)
	return err
}

// ReadFrame reads one length-prefixed frame from r through a pooled
// scratch buffer (Decode copies every retained byte out of it).
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	bp := frameBufPool.Get().(*[]byte)
	raw := *bp
	if cap(raw) < int(n) {
		raw = make([]byte, n)
	} else {
		raw = raw[:n]
	}
	var m *Message
	_, err := io.ReadFull(r, raw)
	if err == nil {
		m, err = Decode(raw)
	}
	putFrameBuf(bp, raw)
	return m, err
}
