// Package core impersonates the repo's nab/internal/core import path so
// the wirebounds analyzer's package scoping applies. The fixtures mirror
// the Phase-3 claims decoder: a version byte, then a cursor type named
// decoder whose methods read varints, counts checked against the bytes
// left, length-prefixed blocks and fixed 8-byte symbols, each paired with
// the unguarded variant the analyzer must flag.
package core

import "encoding/binary"

// DecodeClaims checks for the version byte before reading it: fine.
func DecodeClaims(raw []byte) ([]byte, bool) {
	if len(raw) == 0 || raw[0] != 1 {
		return nil, false
	}
	d := decoder{b: raw[1:], ok: true}
	return d.bytes(), d.ok
}

// DecodeClaimsNaked reads the version byte of an empty broadcast.
func DecodeClaimsNaked(raw []byte) bool {
	return raw[0] == 1 // want `index into raw without a preceding length check`
}

type decoder struct {
	b  []byte
	ok bool
}

// count is guarded by its Uvarint call, which also bounds the minimality
// check on the varint's last byte: fine.
func (d *decoder) count(minBytes int) int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) || v > uint64((len(d.b)-n)/minBytes) {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// bytes re-checks the count against len(d.b) before cutting: fine.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 || len(d.b) < n {
		return nil
	}
	out := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return out
}

// bytesNaked trusts the count method checked the bytes left; the guard
// must be in the function that slices.
func (d *decoder) bytesNaked() []byte {
	n := d.count(1)
	return d.b[:n] // want `slice of d.b without a preceding length check`
}

// elemNaked cuts a fixed 8-byte symbol on the sender's word alone.
func (d *decoder) elemNaked() uint64 {
	return binary.LittleEndian.Uint64(d.b[:8]) // want `slice of d.b without a preceding length check`
}
