package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"nab/internal/core"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/relay"
)

// encode is m's frame as Decode reads it: AppendFrame's encoding without
// the length prefix.
func encode(m *Message) ([]byte, error) {
	raw, err := AppendFrame(nil, m)
	if err != nil {
		return nil, err
	}
	return raw[4:], nil
}

// frameCases covers every body type NAB phases put on a link, alone and
// as packets of step frames (an empty step frame included).
func frameCases() []*Message {
	return []*Message{
		{Instance: 7, Step: 3, From: 1, To: 2, Packets: []Packet{}},
		{Instance: 8, Step: 5, From: 2, To: 1, Bits: 13 + 192 + 352, Packets: []Packet{
			{Bits: 13, Body: core.Phase1Msg{Tree: 1, Block: core.BitChunk{Bytes: []byte{0xde, 0xad}, BitLen: 13}}},
			{Bits: 192, Body: core.EqMsg{Symbols: []gf.Elem{7, 8, 9}}},
			{Bits: 352, Body: &relay.Packet{Origin: 2, Dest: 6, PathIdx: 3, Hop: 2, MsgID: "eig:1", Payload: []byte{1, 2, 3, 0}}},
			{Bits: 0, Body: nil},
			{Bits: 0, Body: []byte("raw")},
		}},
		{Instance: 1, Step: 0, From: 4, To: 5, Bits: 96, Body: []byte("raw payload")},
		{Instance: 2, Step: 9, From: 2, To: 3, Bits: 13, Body: core.Phase1Msg{
			Tree:  4,
			Block: core.BitChunk{Bytes: []byte{0xde, 0xad, 0x80}, BitLen: 17},
		}},
		{Instance: 3, Step: 1, From: 6, To: 1, Bits: 192, Body: core.EqMsg{
			Symbols: []gf.Elem{0, 1, 0xffffffffffffffff, 42},
		}},
		{Instance: 4, Step: 12, From: 3, To: 4, Bits: 352, Body: &relay.Packet{
			Origin: 2, Dest: 6, PathIdx: 3, Hop: 2, MsgID: "eig:1", Payload: []byte{1, 2, 3, 0},
		}},
		// Empty-payload edge cases.
		{Instance: 5, Step: 2, From: 1, To: 3, Bits: 0, Body: core.EqMsg{Symbols: []gf.Elem{}}},
		{Instance: 6, Step: 4, From: 2, To: 1, Bits: 0, Body: &relay.Packet{
			Origin: 2, Dest: 1, PathIdx: 0, Hop: 1, MsgID: "", Payload: nil,
		}},
	}
}

// payloadEqual compares a decoded frame's payload with the sent one: a
// step frame stays a step frame with the same packets, and any other
// frame keeps its body.
func payloadEqual(want, got *Message) bool {
	if (want.Packets == nil) != (got.Packets == nil) || len(want.Packets) != len(got.Packets) {
		return false
	}
	for i, p := range want.Packets {
		if p.Bits != got.Packets[i].Bits || !bodiesEqual(p.Body, got.Packets[i].Body) {
			return false
		}
	}
	return bodiesEqual(want.Body, got.Body)
}

// bodiesEqual compares decoded single bodies, tolerating nil-vs-empty
// slices (wire format cannot distinguish them).
func bodiesEqual(a, b any) bool {
	switch x := a.(type) {
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case core.EqMsg:
		y, ok := b.(core.EqMsg)
		if !ok || len(x.Symbols) != len(y.Symbols) {
			return false
		}
		for i := range x.Symbols {
			if x.Symbols[i] != y.Symbols[i] {
				return false
			}
		}
		return true
	case *relay.Packet:
		y, ok := b.(*relay.Packet)
		return ok && x.Origin == y.Origin && x.Dest == y.Dest &&
			x.PathIdx == y.PathIdx && x.Hop == y.Hop && x.MsgID == y.MsgID &&
			bytes.Equal(x.Payload, y.Payload)
	default:
		return reflect.DeepEqual(a, b)
	}
}

func TestWireRoundTrip(t *testing.T) {
	for i, m := range frameCases() {
		raw, err := encode(m)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := Decode(raw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Instance != m.Instance || got.Step != m.Step || got.From != m.From ||
			got.To != m.To || got.Bits != m.Bits {
			t.Errorf("case %d: header mismatch: got %+v want %+v", i, got, m)
		}
		if !payloadEqual(m, got) {
			t.Errorf("case %d: payload mismatch: got %#v want %#v", i, got, m)
		}
	}
}

func TestWireFrameStream(t *testing.T) {
	var buf bytes.Buffer
	cases := frameCases()
	for i, m := range cases {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
	}
	for i, m := range cases {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if got.Step != m.Step || !payloadEqual(m, got) {
			t.Errorf("case %d: stream round-trip mismatch", i)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("%d trailing bytes after reading all frames", buf.Len())
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short frame accepted")
	}
	m := &Message{From: 1, To: 2, Body: core.EqMsg{Symbols: []gf.Elem{1, 2, 3}}}
	raw, err := encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the symbol vector mid-element.
	if _, err := Decode(raw[:len(raw)-5]); err == nil {
		t.Error("truncated eq frame accepted")
	}
	// Unknown payload kind.
	bad := append([]byte(nil), raw...)
	bad[headerBytes-1] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := encode(&Message{Body: 3.14}); err == nil {
		t.Error("unencodable body accepted")
	}
	// A marker frame of the previous wire version (header with a flags
	// byte, flagMarker set, nil body) — the "marker" fuzz corpus entry.
	legacyMarker := []byte{
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3,
		0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
	}
	if m, err := Decode(legacyMarker); err == nil {
		t.Errorf("previous-version marker frame accepted as %+v", m)
	}
	// Oversized length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestWireRejectsMalformedStepFrames: a step frame decodes only as
// AppendFrame writes it — its packets' charges are non-negative and sum to
// the header bits, the count is whole and honest, and packet lists do not
// nest.
func TestWireRejectsMalformedStepFrames(t *testing.T) {
	frame := func(bits int64, pkts ...Packet) []byte {
		t.Helper()
		// AppendFrame refuses every malformed row below, so build the
		// bytes by hand: header, kind, count, then bits | size | kind |
		// payload.
		raw, err := encode(&Message{Instance: 1, Step: 2, From: 3, To: 4, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		raw = raw[:headerBytes-1]
		raw = append(raw, kindPackets)
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(pkts)))
		for _, p := range pkts {
			raw = binary.BigEndian.AppendUint64(raw, uint64(p.Bits))
			body, err := appendBody(nil, p.Body)
			if err != nil {
				body = []byte{kindPackets} // a nested list: the tag alone
			}
			raw = binary.BigEndian.AppendUint32(raw, uint32(len(body)))
			raw = append(raw, body...)
		}
		return raw
	}
	raw8 := Packet{Bits: 8, Body: []byte{1}}
	if _, err := Decode(frame(16, raw8, raw8)); err != nil {
		t.Fatalf("well-formed hand-built step frame rejected: %v", err)
	}
	one := frame(8, raw8)
	overcount := append([]byte(nil), one...)
	binary.BigEndian.PutUint32(overcount[headerBytes:], 2)
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"bits not summing to the header", frame(17, raw8, raw8)},
		{"truncated count", frame(0)[:headerBytes+2]},
		{"count beyond the packets", overcount},
		{"truncated packet", one[:len(one)-1]},
		{"negative packet charge", frame(0, Packet{Bits: -8, Body: []byte{1}}, Packet{Bits: 8, Body: []byte{2}})},
		{"nested packet list", frame(0, Packet{Body: []Packet{}})},
		{"trailing bytes", append(one, 0)},
	} {
		if m, err := Decode(tc.raw); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, m)
		}
	}
	for _, m := range []*Message{
		{Bits: 9, Packets: []Packet{raw8}},
		{Bits: 0, Packets: []Packet{{Bits: -8}, {Bits: 8}}},
		{Packets: []Packet{{Body: []Packet{}}}},
		{Bits: 8, Packets: []Packet{raw8}, Body: []byte{1}}, // a step frame with a body
		{Body: []Packet{}},                                  // a packet list is not a body: never a step frame
		{Body: (*relay.Packet)(nil)},
	} {
		if _, err := encode(m); err == nil {
			t.Errorf("malformed step frame %+v encoded", m)
		}
	}
}

// TestWireSharesEqualRelayPayloads: a step frame's relay packets with the
// payload of the relay packet before them decode onto one copy of it;
// any other payload gets its own.
func TestWireSharesEqualRelayPayloads(t *testing.T) {
	rp := func(dest int, payload string) Packet {
		return Packet{Bits: int64(8 * len(payload)), Body: &relay.Packet{Origin: 1, Dest: graph.NodeID(dest), Hop: 1, MsgID: "eig:0", Payload: []byte(payload)}}
	}
	m := &Message{Step: 1, From: 1, To: 2, Packets: []Packet{
		rp(3, "report"), rp(4, "report"), {Bits: 0, Body: []byte("report")}, rp(5, "report"), rp(6, "other"),
	}}
	for _, p := range m.Packets {
		m.Bits += p.Bits
	}
	raw, err := encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !payloadEqual(m, got) {
		t.Fatalf("payload mismatch: got %#v", got)
	}
	payload := func(i int) []byte { return got.Packets[i].Body.(*relay.Packet).Payload }
	for _, i := range []int{1, 3} {
		if &payload(i)[0] != &payload(0)[0] {
			t.Errorf("packet %d: an equal payload was decoded into a copy of its own", i)
		}
	}
	if &payload(4)[0] == &payload(0)[0] {
		t.Error("a different payload shares bytes with the report")
	}
}
