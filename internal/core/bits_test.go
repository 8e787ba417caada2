package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitJoinRoundTripQuick(t *testing.T) {
	check := func(data []byte, partsSeed uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 64 {
			data = data[:64]
		}
		totalBits := len(data) * 8
		parts := 1 + int(partsSeed)%(totalBits)
		chunks, err := splitBits(data, totalBits, parts)
		if err != nil {
			return false
		}
		if len(chunks) != parts {
			return false
		}
		back, err := joinBits(chunks, totalBits)
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitBitsBlockSizes(t *testing.T) {
	// 32 bits into 3 parts: 10/11/11 per the floor-boundary rule.
	chunks, err := splitBits(make([]byte, 4), 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 11, 11}
	for i, c := range chunks {
		if c.BitLen != want[i] {
			t.Errorf("chunk %d: %d bits, want %d", i, c.BitLen, want[i])
		}
	}
	// More parts than bits: some chunks are empty, reassembly still works.
	chunks, err = splitBits([]byte{0xFF}, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	back, err := joinBits(chunks, 8)
	if err != nil {
		t.Fatal(err)
	}
	if back[0] != 0xFF {
		t.Errorf("back = %x", back)
	}
}

func TestSplitBitsValidation(t *testing.T) {
	if _, err := splitBits([]byte{1}, 8, 0); err == nil {
		t.Error("parts=0: expected error")
	}
	if _, err := splitBits([]byte{1}, 9, 1); err == nil {
		t.Error("totalBits beyond data: expected error")
	}
	if _, err := splitBits([]byte{1}, -1, 1); err == nil {
		t.Error("negative totalBits: expected error")
	}
}

func TestJoinBitsValidation(t *testing.T) {
	good := BitChunk{Bytes: []byte{0xAB}, BitLen: 8}
	if _, err := joinBits([]BitChunk{good}, 16); err == nil {
		t.Error("bit-count mismatch: expected error")
	}
	bad := BitChunk{Bytes: []byte{0xAB}, BitLen: 99}
	if _, err := joinBits([]BitChunk{bad}, 99); err == nil {
		t.Error("malformed chunk: expected error")
	}
	neg := BitChunk{Bytes: nil, BitLen: -1}
	if _, err := joinBits([]BitChunk{neg}, -1); err == nil {
		t.Error("negative chunk: expected error")
	}
}

func TestNormalizeChunk(t *testing.T) {
	// Truncation keeps the leading bits.
	in := BitChunk{Bytes: []byte{0b10110000}, BitLen: 8}
	out := normalizeChunk(in, 4)
	if out.BitLen != 4 || out.Bytes[0] != 0b10110000&0xF0 {
		t.Errorf("truncate: %+v", out)
	}
	// Padding appends zeros.
	out = normalizeChunk(in, 12)
	if out.BitLen != 12 || out.Bytes[0] != 0b10110000 || out.Bytes[1] != 0 {
		t.Errorf("pad: %+v", out)
	}
	// Lying BitLen beyond the backing bytes is clamped, not trusted.
	lie := BitChunk{Bytes: []byte{0xFF}, BitLen: 64}
	out = normalizeChunk(lie, 16)
	if out.Bytes[0] != 0xFF || out.Bytes[1] != 0x00 {
		t.Errorf("clamp: %+v", out)
	}
	// Zero-width requests yield an empty chunk.
	out = normalizeChunk(in, 0)
	if out.BitLen != 0 {
		t.Errorf("zero: %+v", out)
	}
}

func TestChunkEqual(t *testing.T) {
	a := BitChunk{Bytes: []byte{0xF0}, BitLen: 4}
	b := BitChunk{Bytes: []byte{0xFF}, BitLen: 4} // differs only in pad bits
	if !chunkEqual(a, b) {
		t.Error("pad bits should not affect equality")
	}
	c := BitChunk{Bytes: []byte{0x70}, BitLen: 4}
	if chunkEqual(a, c) {
		t.Error("differing payload bits reported equal")
	}
	d := BitChunk{Bytes: []byte{0xF0}, BitLen: 5}
	if chunkEqual(a, d) {
		t.Error("differing lengths reported equal")
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	check := func(data []byte, bitsSeed uint8) bool {
		want := int(bitsSeed) % 65
		c := normalizeChunk(BitChunk{Bytes: data, BitLen: len(data) * 8}, want)
		again := normalizeChunk(c, want)
		return chunkEqual(c, again) && c.BitLen == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The bit-at-a-time originals of the plumbing in bits.go: the oracles the
// word-level versions are held to.

func bitOf(data []byte, i int) byte {
	return (data[i/8] >> (7 - i%8)) & 1
}

func setBit(data []byte, i int) {
	data[i/8] |= 1 << (7 - i%8)
}

func splitBitsRef(data []byte, totalBits, parts int) []BitChunk {
	out := make([]BitChunk, parts)
	for p := 0; p < parts; p++ {
		lo := p * totalBits / parts
		hi := (p + 1) * totalBits / parts
		chunk := BitChunk{Bytes: make([]byte, (hi-lo+7)/8), BitLen: hi - lo}
		for i := lo; i < hi; i++ {
			if bitOf(data, i) != 0 {
				setBit(chunk.Bytes, i-lo)
			}
		}
		out[p] = chunk
	}
	return out
}

func joinBitsRef(chunks []BitChunk, totalBits int) []byte {
	out := make([]byte, (totalBits+7)/8)
	pos := 0
	for _, c := range chunks {
		for i := 0; i < c.BitLen; i++ {
			if bitOf(c.Bytes, i) != 0 {
				setBit(out, pos)
			}
			pos++
		}
	}
	return out
}

func normalizeChunkRef(c BitChunk, wantBits int) BitChunk {
	out := BitChunk{Bytes: make([]byte, (wantBits+7)/8), BitLen: wantBits}
	limit := c.BitLen
	if limit > wantBits {
		limit = wantBits
	}
	if limit > len(c.Bytes)*8 {
		limit = len(c.Bytes) * 8
	}
	for i := 0; i < limit; i++ {
		if bitOf(c.Bytes, i) != 0 {
			setBit(out.Bytes, i)
		}
	}
	return out
}

// chunkEqualRef needs well-formed chunks (BitLen <= 8*len(Bytes)).
func chunkEqualRef(a, b BitChunk) bool {
	if a.BitLen != b.BitLen {
		return false
	}
	for i := 0; i < a.BitLen; i++ {
		if bitOf(a.Bytes, i) != bitOf(b.Bytes, i) {
			return false
		}
	}
	return true
}

func copyBitsRef(dst []byte, dstOff int, src []byte, srcOff, n int) {
	for i := 0; i < n; i++ {
		j, k := srcOff+i, dstOff+i
		dst[k/8] &^= 1 << (7 - k%8)
		if j < len(src)*8 && bitOf(src, j) != 0 {
			setBit(dst, k)
		}
	}
}

// TestCopyBitsEveryOffset runs copyBits against the bit loop for every
// source and destination offset mod 64, with lengths around the word and
// byte boundaries, onto a destination full of ones (bits outside the range
// must survive) from a source that ends inside some copies.
func TestCopyBitsEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := make([]byte, 24)
	rng.Read(src)
	for srcOff := 0; srcOff < 64; srcOff++ {
		for dstOff := 0; dstOff < 64; dstOff++ {
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 140} {
				got, want := bytes.Repeat([]byte{0xff}, 40), bytes.Repeat([]byte{0xff}, 40)
				copyBits(got, dstOff, src, srcOff, n)
				copyBitsRef(want, dstOff, src, srcOff, n)
				if !bytes.Equal(got, want) {
					t.Fatalf("copyBits(dstOff=%d, srcOff=%d, n=%d) = %x, oracle %x", dstOff, srcOff, n, got, want)
				}
			}
		}
	}
}

// FuzzBitPlumbing holds splitBits, joinBits, normalizeChunk, chunkEqual
// and copyBits to the bit-at-a-time oracles: split points at every offset
// (parts up to 200 over up to a few hundred bits), chunks with garbage pad
// bits, chunks claiming more bits than their bytes hold, and zero-length
// chunks.
func FuzzBitPlumbing(f *testing.F) {
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, uint16(3), uint16(5), uint16(70))
	f.Add(bytes.Repeat([]byte{0xA5}, 40), uint16(63), uint16(199), uint16(1))
	f.Add([]byte{}, uint16(0), uint16(0), uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, a, b, c uint16) {
		// copyBits at fuzzer-chosen offsets, onto ones.
		dstOff, srcOff, n := int(a)%64, int(b)%(len(data)*8+8), int(c)%(len(data)*8+80)
		got, want := bytes.Repeat([]byte{0xff}, (dstOff+n+7)/8+1), bytes.Repeat([]byte{0xff}, (dstOff+n+7)/8+1)
		copyBits(got, dstOff, data, srcOff, n)
		copyBitsRef(want, dstOff, data, srcOff, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("copyBits(dstOff=%d, srcOff=%d, n=%d) = %x, oracle %x", dstOff, srcOff, n, got, want)
		}

		// split against the oracle, then join with garbage pad bits.
		totalBits := max(0, len(data)*8-int(a)%8)
		parts := 1 + int(b)%200
		chunks, err := splitBits(data, totalBits, parts)
		if err != nil {
			t.Fatalf("splitBits(%d bits, %d parts): %v", totalBits, parts, err)
		}
		for i, ref := range splitBitsRef(data, totalBits, parts) {
			if chunks[i].BitLen != ref.BitLen || !bytes.Equal(chunks[i].Bytes, ref.Bytes) {
				t.Fatalf("splitBits chunk %d = %+v, oracle %+v", i, chunks[i], ref)
			}
		}
		for i := range chunks {
			if pad := chunks[i].BitLen % 8; pad != 0 {
				chunks[i].Bytes[len(chunks[i].Bytes)-1] |= 0xff >> pad
			}
		}
		joined, err := joinBits(chunks, totalBits)
		if err != nil {
			t.Fatalf("joinBits: %v", err)
		}
		if ref := joinBitsRef(chunks, totalBits); !bytes.Equal(joined, ref) {
			t.Fatalf("joinBits = %x, oracle %x", joined, ref)
		}

		// normalize a chunk whose BitLen may exceed its bytes, to any width.
		raw := BitChunk{Bytes: data, BitLen: int(c) % (len(data)*8 + 80)}
		wantBits := int(a) % (len(data)*8 + 70)
		norm, ref := normalizeChunk(raw, wantBits), normalizeChunkRef(raw, wantBits)
		if norm.BitLen != ref.BitLen || !bytes.Equal(norm.Bytes, ref.Bytes) {
			t.Fatalf("normalizeChunk(%+v, %d) = %+v, oracle %+v", raw, wantBits, norm, ref)
		}

		// chunkEqual: on well-formed chunks it is the oracle; on any chunk,
		// missing bits read as zero, i.e. the oracle on the normalized form.
		other := normalizeChunk(BitChunk{Bytes: joined, BitLen: len(joined) * 8}, wantBits)
		if got, want := chunkEqual(norm, other), chunkEqualRef(norm, other); got != want {
			t.Fatalf("chunkEqual(%+v, %+v) = %v, oracle %v", norm, other, got, want)
		}
		if got, want := chunkEqual(norm, ref), true; got != want {
			t.Fatalf("chunkEqual of a chunk and its oracle copy = %v", got)
		}
		whole := normalizeChunk(raw, raw.BitLen)
		if got, want := chunkEqual(raw, whole), true; got != want {
			t.Fatalf("chunkEqual(%+v, its normalization) = %v", raw, got)
		}
		if got, want := chunkEqual(raw, other), chunkEqualRef(whole, normalizeChunk(other, other.BitLen)); got != want {
			t.Fatalf("chunkEqual(%+v, %+v) = %v, oracle on normalized %v", raw, other, got, want)
		}
	})
}
