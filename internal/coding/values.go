package coding

import (
	"encoding/binary"
	"fmt"

	"nab/internal/gf"
)

// PackValue converts a byte string into rho symbols of symbolBits bits each,
// reading bits most-significant-first. The data must fit: len(data)*8 <=
// rho*symbolBits; missing trailing bits are zero-padded. This realizes the
// paper's view of an L-bit value x as a vector X of rho symbols over
// GF(2^(L/rho)).
//
// Each symbol is cut from one 64-bit big-endian window of data at the
// symbol's bit offset (plus one byte when the symbol straddles the
// window), so a width that is a multiple of 8 is one word load per symbol.
func PackValue(data []byte, rho int, symbolBits uint) ([]gf.Elem, error) {
	if rho <= 0 {
		return nil, fmt.Errorf("coding: rho = %d must be positive", rho)
	}
	if symbolBits < 1 || symbolBits > 64 {
		return nil, fmt.Errorf("coding: symbolBits = %d out of range [1,64]", symbolBits)
	}
	capacity := uint64(rho) * uint64(symbolBits)
	if uint64(len(data))*8 > capacity {
		return nil, fmt.Errorf("coding: %d bytes exceed capacity %d bits (rho=%d, m=%d)", len(data), capacity, rho, symbolBits)
	}
	out := make([]gf.Elem, rho)
	m := int(symbolBits)
	for k, off := 0, 0; off < len(data)*8; k, off = k+1, off+m {
		out[k] = LoadBits(data, off) >> (64 - symbolBits)
	}
	return out, nil
}

// LoadBits returns the 64 bits of data starting at bit offset off, first
// bit in the most significant position; bits past the end of data read as
// zero. It is the one reader of the most-significant-bit-first order in
// which values are cut into symbols here and into Phase-1 blocks in core.
func LoadBits(data []byte, off int) uint64 {
	i, sh := off>>3, uint(off&7)
	var w uint64
	if i+8 <= len(data) {
		w = binary.BigEndian.Uint64(data[i:])
	} else {
		for j := i; j < i+8; j++ {
			w <<= 8
			if j < len(data) {
				w |= uint64(data[j])
			}
		}
	}
	if sh != 0 {
		w <<= sh
		if i+8 < len(data) {
			w |= uint64(data[i+8]) >> (8 - sh)
		}
	}
	return w
}

// ValuesEqual reports whether two symbol vectors are identical.
func ValuesEqual(a, b []gf.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
