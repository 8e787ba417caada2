package coding

import (
	"fmt"
	"math/rand"
	"testing"

	"nab/internal/gf"
)

// packValueRef is the bit-at-a-time PackValue: the oracle the word-level
// packer is held to.
func packValueRef(data []byte, rho int, symbolBits uint) []gf.Elem {
	out := make([]gf.Elem, rho)
	bitPos := uint64(0)
	for _, b := range data {
		for k := 7; k >= 0; k-- {
			bit := uint64(b>>uint(k)) & 1
			sym := bitPos / uint64(symbolBits)
			off := bitPos % uint64(symbolBits)
			if bit != 0 {
				out[sym] |= 1 << (uint64(symbolBits) - 1 - off)
			}
			bitPos++
		}
	}
	return out
}

// unpackValueRef is the inverse of PackValue, returning byteLen bytes.
func unpackValueRef(symbols []gf.Elem, symbolBits uint, byteLen int) []byte {
	out := make([]byte, byteLen)
	for bitPos := uint64(0); bitPos < uint64(byteLen)*8; bitPos++ {
		sym := bitPos / uint64(symbolBits)
		off := bitPos % uint64(symbolBits)
		bit := (symbols[sym] >> (uint64(symbolBits) - 1 - off)) & 1
		if bit != 0 {
			out[bitPos/8] |= 1 << (7 - bitPos%8)
		}
	}
	return out
}

// FuzzPackValue holds PackValue to the bit-at-a-time oracle for every
// symbol width 1..64, with slack symbols past the data (zero padding) and
// data lengths that leave the last symbol ragged.
func FuzzPackValue(f *testing.F) {
	f.Add([]byte("byzantine broadcast"), uint8(63), uint8(0))
	f.Add([]byte{0xff, 0x01, 0x80}, uint8(6), uint8(3))
	f.Add(make([]byte, 17), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, bitsSeed, slack uint8) {
		symbolBits := 1 + uint(bitsSeed)%64
		rho := (len(data)*8+int(symbolBits)-1)/int(symbolBits) + int(slack%4)
		if rho == 0 {
			rho = 1
		}
		got, err := PackValue(data, rho, symbolBits)
		if err != nil {
			t.Fatalf("PackValue(%d bytes, rho=%d, m=%d): %v", len(data), rho, symbolBits, err)
		}
		if want := packValueRef(data, rho, symbolBits); !ValuesEqual(got, want) {
			t.Fatalf("PackValue(%x, rho=%d, m=%d) = %x, oracle %x", data, rho, symbolBits, got, want)
		}
	})
}

// TestPackValueMatchesReference runs the fuzz property over every width
// and a spread of lengths, so tier-1 covers each tail shape.
func TestPackValueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for m := uint(1); m <= 64; m++ {
		for n := 0; n <= 40; n++ {
			data := make([]byte, n)
			rng.Read(data)
			rho := max(1, (n*8+int(m)-1)/int(m)+rng.Intn(2))
			got, err := PackValue(data, rho, m)
			if err != nil {
				t.Fatal(err)
			}
			if want := packValueRef(data, rho, m); !ValuesEqual(got, want) {
				t.Fatalf("PackValue(%x, rho=%d, m=%d) = %x, oracle %x", data, rho, m, got, want)
			}
		}
	}
}

// BenchmarkPackValue packs a 64 KiB value into GF(2^64) symbols (a
// word-aligned width) and GF(2^61) symbols (a ragged one).
func BenchmarkPackValue(b *testing.B) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(2012)).Read(data)
	for _, m := range []uint{64, 61} {
		rho := (len(data)*8 + int(m) - 1) / int(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := PackValue(data, rho, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
