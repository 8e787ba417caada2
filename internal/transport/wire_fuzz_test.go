package transport

import (
	"bytes"
	"reflect"
	"testing"

	"nab/internal/core"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/relay"
)

// seedMessages covers every wire frame kind once, step frames included.
func seedMessages() []*Message {
	return []*Message{
		{Instance: 1, Step: 2, From: 3, To: 4, Packets: []Packet{}},
		{Instance: 5, Step: 6, From: 4, To: 3, Bits: 24 + 64, Packets: []Packet{
			{Bits: 24, Body: core.Phase1Msg{Tree: 2, Block: core.BitChunk{Bytes: []byte{0xff, 0x80}, BitLen: 9}}},
			{Bits: 64, Body: &relay.Packet{Origin: 1, Dest: 9, PathIdx: 2, Hop: 1, MsgID: "eig:3", Payload: []byte("flag")}},
			{Bits: 0, Body: core.EqMsg{Symbols: []gf.Elem{3}}},
		}},
		{Instance: 7, Step: 1, From: 1, To: 2, Bits: 8, Body: []byte{0xde, 0xad}},
		{Instance: 2, Step: 9, From: 5, To: 6, Bits: 24, Body: core.Phase1Msg{
			Tree:  1,
			Block: core.BitChunk{Bytes: []byte{0xff, 0x80}, BitLen: 9},
		}},
		{Instance: 3, Step: 0, From: 2, To: 1, Bits: 128, Body: core.EqMsg{
			Symbols: []gf.Elem{0, 1, 0xfffffffffffffffe},
		}},
		{Instance: 4, Step: 5, From: 9, To: 8, Bits: 64, Body: &relay.Packet{
			Origin: 1, Dest: 9, PathIdx: 2, Hop: 1, MsgID: "eig:3", Payload: []byte("claims"),
		}},
		{Instance: 0, Step: 0, From: 0, To: 0, Body: nil},
	}
}

// FuzzDecode feeds arbitrary bytes to the frame decoder: it must never
// panic, and whatever it accepts must re-encode and re-decode to the
// same message (the decoder only accepts canonical frames' content). The
// checked-in corpus also holds a marker frame of the previous wire version.
func FuzzDecode(f *testing.F) {
	for _, m := range seedMessages() {
		raw, err := encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Decode(raw)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		raw2, err := encode(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%+v)", err, m)
		}
		m2, err := Decode(raw2)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode/encode/decode diverged:\n%+v\n%+v", m, m2)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the length-prefixed
// reader: no panic, and anything accepted round-trips through WriteFrame.
func FuzzReadFrame(f *testing.F) {
	for _, m := range seedMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, 0xff})
	f.Fuzz(func(t *testing.T, stream []byte) {
		m, err := ReadFrame(bytes.NewReader(stream))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("accepted frame does not rewrite: %v", err)
		}
		m2, err := ReadFrame(&buf)
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("write/read round trip diverged (%v):\n%+v\n%+v", err, m, m2)
		}
	})
}

// FuzzWireRoundTrip builds a structured message per frame kind from the
// fuzzer's primitives — alone, or as the one packet of a step frame — and
// asserts encode/Decode field fidelity.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(2), int64(3), int64(4), false, int64(8), byte(1), []byte{1, 2, 3}, int32(0), int32(9))
	f.Add(uint64(9), uint32(0), int64(-1), int64(7), true, int64(0), byte(0), []byte{}, int32(3), int32(-2))
	f.Add(uint64(5), uint32(7), int64(2), int64(3), false, int64(64), byte(2), []byte{0xab}, int32(1), int32(13))
	f.Add(uint64(8), uint32(3), int64(4), int64(5), false, int64(128), byte(3), []byte{1, 2, 3, 4, 5, 6, 7, 8}, int32(0), int32(0))
	f.Add(uint64(6), uint32(1), int64(9), int64(1), false, int64(32), byte(4), []byte("payload"), int32(2), int32(4))
	f.Add(uint64(3), uint32(4), int64(1), int64(2), true, int64(13), byte(2), []byte{0xde, 0xad}, int32(13), int32(1))
	f.Add(uint64(4), uint32(9), int64(5), int64(6), true, int64(96), byte(4), []byte("eig:flag"), int32(1), int32(3))
	f.Fuzz(func(t *testing.T, instance uint64, step uint32, from, to int64, framed bool, bits int64, kind byte, payload []byte, a, b int32) {
		if bits < 0 {
			bits = -bits
		}
		m := &Message{
			Instance: instance, Step: step,
			From: graph.NodeID(from), To: graph.NodeID(to),
			Bits: bits,
		}
		switch kind % 5 {
		case 0:
			m.Body = nil
		case 1:
			m.Body = append([]byte(nil), payload...)
		case 2:
			bitLen := len(payload) * 8
			if int(a) >= 0 && int(a) <= bitLen {
				bitLen = int(a)
			}
			m.Body = core.Phase1Msg{Tree: int(b), Block: core.BitChunk{Bytes: append([]byte(nil), payload...), BitLen: bitLen}}
		case 3:
			syms := make([]gf.Elem, 0, len(payload)/2)
			for i := 0; i+1 < len(payload); i += 2 {
				syms = append(syms, gf.Elem(payload[i])<<8|gf.Elem(payload[i+1]))
			}
			m.Body = core.EqMsg{Symbols: syms}
		case 4:
			id := "m"
			if len(payload) > 0 {
				id = string(payload[:len(payload)/2])
			}
			m.Body = &relay.Packet{
				Origin: graph.NodeID(a), Dest: graph.NodeID(b),
				PathIdx: int(a % 16), Hop: int(b % 16),
				MsgID: id, Payload: append([]byte(nil), payload...),
			}
		}
		if framed {
			m.Packets, m.Body = []Packet{{Bits: bits, Body: m.Body}}, nil
		}
		raw, err := encode(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Decode(raw)
		if err != nil {
			t.Fatalf("decode of canonical frame: %v", err)
		}
		if got.Instance != m.Instance || got.Step != m.Step || got.From != m.From ||
			got.To != m.To || got.Bits != m.Bits {
			t.Fatalf("header round trip diverged: %+v vs %+v", got, m)
		}
		if !payloadEqual(m, got) {
			t.Fatalf("payload round trip diverged: %#v vs %#v", got, m)
		}
	})
}
