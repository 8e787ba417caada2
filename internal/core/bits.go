package core

import (
	"encoding/binary"
	"fmt"

	"nab/internal/coding"
)

// BitChunk is a bit string: Bytes holds BitLen bits, most significant bit
// of Bytes[0] first; trailing pad bits are zero.
type BitChunk struct {
	Bytes  []byte
	BitLen int
}

// splitBits divides the first totalBits bits of data into parts nearly-equal
// chunks: chunk i covers bits [i*totalBits/parts, (i+1)*totalBits/parts).
// This is the paper's Phase-1 split of the L-bit input into gamma blocks of
// ~L/gamma bits, one per spanning tree.
func splitBits(data []byte, totalBits, parts int) ([]BitChunk, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("core: parts = %d must be positive", parts)
	}
	if totalBits < 0 || totalBits > len(data)*8 {
		return nil, fmt.Errorf("core: totalBits = %d out of range [0, %d]", totalBits, len(data)*8)
	}
	out := make([]BitChunk, parts)
	for p := 0; p < parts; p++ {
		lo := p * totalBits / parts
		hi := (p + 1) * totalBits / parts
		chunk := BitChunk{Bytes: make([]byte, (hi-lo+7)/8), BitLen: hi - lo}
		copyBits(chunk.Bytes, 0, data, lo, hi-lo)
		out[p] = chunk
	}
	return out, nil
}

// joinBits reassembles chunks produced by splitBits back into a byte slice
// carrying totalBits bits. Chunks with wrong lengths are an error (callers
// normalize adversarial chunks before joining); pad bits are ignored.
func joinBits(chunks []BitChunk, totalBits int) ([]byte, error) {
	sum := 0
	for _, c := range chunks {
		if c.BitLen < 0 || len(c.Bytes)*8 < c.BitLen {
			return nil, fmt.Errorf("core: malformed chunk (len %d bits in %d bytes)", c.BitLen, len(c.Bytes))
		}
		sum += c.BitLen
	}
	if sum != totalBits {
		return nil, fmt.Errorf("core: chunks carry %d bits, want %d", sum, totalBits)
	}
	out := make([]byte, (totalBits+7)/8)
	pos := 0
	for _, c := range chunks {
		copyBits(out, pos, c.Bytes, 0, c.BitLen)
		pos += c.BitLen
	}
	return out, nil
}

// normalizeChunk coerces an arbitrary (possibly adversarial) chunk to
// exactly wantBits bits: truncating or zero-padding as needed, matching the
// model's rule that a missing or malformed message is read as a default
// value. Pad bits of the result are zero.
func normalizeChunk(c BitChunk, wantBits int) BitChunk {
	out := BitChunk{Bytes: make([]byte, (wantBits+7)/8), BitLen: wantBits}
	copyBits(out.Bytes, 0, c.Bytes, 0, min(c.BitLen, wantBits, len(c.Bytes)*8))
	return out
}

// chunkEqual compares two chunks bit-for-bit over their BitLen bits; pad
// bits are ignored, and bits a chunk's Bytes do not cover read as zero.
func chunkEqual(a, b BitChunk) bool {
	if a.BitLen != b.BitLen {
		return false
	}
	for off := 0; off < a.BitLen; off += 64 {
		d := coding.LoadBits(a.Bytes, off) ^ coding.LoadBits(b.Bytes, off)
		if rest := a.BitLen - off; rest < 64 {
			d >>= 64 - rest
		}
		if d != 0 {
			return false
		}
	}
	return true
}

// copyBits sets bits [dstOff, dstOff+n) of dst to bits [srcOff, srcOff+n)
// of src, most significant bit of byte 0 first, and leaves every other
// bit of dst as it was; bits past the end of src read as zero. dst must
// cover the written range; n <= 0 copies nothing. After at most seven bits
// align the destination to a byte, it moves 64 bits per step: one
// shift-and-merge word read from src, one big-endian word store.
//
//nab:allocfree
func copyBits(dst []byte, dstOff int, src []byte, srcOff, n int) {
	if n <= 0 {
		return
	}
	if r := dstOff & 7; r != 0 {
		k := min(8-r, n)
		mergeBits(&dst[dstOff>>3], r, k, coding.LoadBits(src, srcOff))
		dstOff, srcOff, n = dstOff+k, srcOff+k, n-k
	}
	d := dstOff >> 3
	for ; n >= 64; n -= 64 {
		binary.BigEndian.PutUint64(dst[d:], coding.LoadBits(src, srcOff))
		d, srcOff = d+8, srcOff+64
	}
	for ; n > 0; n -= 8 {
		mergeBits(&dst[d], 0, min(n, 8), coding.LoadBits(src, srcOff))
		d, srcOff = d+1, srcOff+8
	}
}

// mergeBits writes the top k bits of w into *b at bit positions
// [r, r+k), counted from the most significant bit, keeping b's other bits.
func mergeBits(b *byte, r, k int, w uint64) {
	mask := byte(0xff<<(8-k)) >> r
	*b = *b&^mask | byte(w>>(56+r))&mask
}
