// Package bb impersonates the repo's nab/internal/bb import path so the
// wirebounds analyzer's package scoping applies. The fixtures mirror the
// in-place EIG round-batch walker: a varint cursor and a length-prefixed
// value cut out of the batch, each paired with the unguarded variant the
// analyzer must flag.
package bb

import "encoding/binary"

// readVarint compares the cursor with len(raw) before slicing: fine.
func readVarint(raw []byte, pos int) (int64, int, bool) {
	if pos >= len(raw) {
		return 0, pos, false
	}
	v, n := binary.Varint(raw[pos:])
	if n <= 0 {
		return 0, pos, false
	}
	return v, pos + n, true
}

// readValue checks the claimed length against the batch before cutting
// the value out of it: fine.
func readValue(raw []byte, pos int, vlen int64) ([]byte, bool) {
	if vlen < 0 || int64(pos)+vlen > int64(len(raw)) {
		return nil, false
	}
	return raw[pos : pos+int(vlen)], true
}

// readValueNaked cuts the value out on the sender's word alone.
func readValueNaked(raw []byte, pos int, vlen int64) []byte {
	return raw[pos : pos+int(vlen)] // want `slice of raw without a preceding length check`
}

// readVarintNaked slices at a cursor nothing bounded.
func readVarintNaked(raw []byte, pos int) int64 {
	v, _ := binary.Varint(raw[pos:]) // want `slice of raw without a preceding length check`
	return v
}
