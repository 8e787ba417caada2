package gf

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMulMatchesReferenceExhaustive proves the table-driven product equals
// the bit-serial reference loop on every pair of elements for m <= 8
// (at most 65536 pairs per degree).
func TestMulMatchesReferenceExhaustive(t *testing.T) {
	for m := uint(1); m <= 8; m++ {
		f := MustNew(m)
		for a := Elem(0); a <= f.max; a++ {
			for b := Elem(0); b <= f.max; b++ {
				if got, want := f.Mul(a, b), f.mulRef(a, b); got != want {
					t.Fatalf("GF(2^%d): Mul(%#x,%#x) = %#x, reference %#x", m, a, b, got, want)
				}
			}
		}
	}
}

// TestMulMatchesReferenceRandom cross-checks the fast paths (tables for
// m <= 16, carry-less window beyond) against the reference loop on random
// pairs for every supported degree.
func TestMulMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for m := uint(1); m <= 64; m++ {
		f := MustNew(m)
		for trial := 0; trial < 2000; trial++ {
			a, b := f.Rand(rng), f.Rand(rng)
			if got, want := f.Mul(a, b), f.mulRef(a, b); got != want {
				t.Fatalf("GF(2^%d): Mul(%#x,%#x) = %#x, reference %#x", m, a, b, got, want)
			}
		}
	}
}

// TestInvMatchesReference checks Inv (tables up to m = 16, Euclid beyond)
// and the Euclidean inverse itself against Fermat's a^(2^m-2) on the
// reference multiply, on every degree: every element up to m = 10, and 1,
// x, the all-ones element Mask() and random elements beyond.
func TestInvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for m := uint(1); m <= 64; m++ {
		f := MustNew(m)
		as := []Elem{1, 2 & f.max, f.max}
		if m <= 10 {
			for a := Elem(1); a <= f.max; a++ {
				as = append(as, a)
			}
		} else {
			for range 300 {
				as = append(as, f.Rand(rng))
			}
		}
		for _, a := range as {
			if a == 0 {
				continue
			}
			want := f.powRef(a, f.max-1)
			inv, err := f.Inv(a)
			if err != nil {
				t.Fatalf("GF(2^%d): Inv(%#x): %v", m, a, err)
			}
			if inv != want {
				t.Fatalf("GF(2^%d): Inv(%#x) = %#x, reference %#x", m, a, inv, want)
			}
			if got := f.invEuclid(a); got != want {
				t.Fatalf("GF(2^%d): invEuclid(%#x) = %#x, reference %#x", m, a, got, want)
			}
		}
	}
}

// TestMulSliceAXPYMatchScalar checks the bulk kernels element-by-element
// against scalar Mul on representative degrees from both regimes.
func TestMulSliceAXPYMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, m := range []uint{1, 2, 7, 8, 15, 16, 17, 24, 32, 33, 48, 63, 64} {
		f := MustNew(m)
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(40)
			src := make([]Elem, n)
			for i := range src {
				src[i] = f.Rand(rng)
			}
			a := f.Rand(rng)
			if trial%5 == 0 {
				a = Elem(trial / 5 % 2) // exercise the 0 and 1 fast paths
			}

			got := make([]Elem, n)
			f.MulSlice(a, got, src)
			for i := range src {
				if want := f.Mul(a, src[i]); got[i] != want {
					t.Fatalf("GF(2^%d): MulSlice a=%#x src[%d]=%#x: got %#x want %#x", m, a, i, src[i], got[i], want)
				}
			}

			acc := make([]Elem, n)
			for i := range acc {
				acc[i] = f.Rand(rng)
			}
			want := make([]Elem, n)
			for i := range want {
				want[i] = acc[i] ^ f.Mul(a, src[i])
			}
			f.AXPY(a, acc, src)
			for i := range acc {
				if acc[i] != want[i] {
					t.Fatalf("GF(2^%d): AXPY a=%#x src[%d]=%#x: got %#x want %#x", m, a, i, src[i], acc[i], want[i])
				}
			}
		}
	}
}

// TestMulSliceInPlace checks dst == src aliasing (row normalization).
func TestMulSliceInPlace(t *testing.T) {
	f := MustNew(16)
	rng := rand.New(rand.NewSource(3))
	row := make([]Elem, 20)
	for i := range row {
		row[i] = f.Rand(rng)
	}
	a := f.Rand(rng)
	want := make([]Elem, len(row))
	for i := range row {
		want[i] = f.Mul(a, row[i])
	}
	f.MulSlice(a, row, row)
	for i := range row {
		if row[i] != want[i] {
			t.Fatalf("in-place MulSlice: row[%d] = %#x, want %#x", i, row[i], want[i])
		}
	}
}

// kernelOracle is the reference for every bulk kernel: for i < n,
// dst[i*ds] becomes mulRef(a, src[i*ss]) (or is XORed with it when acc),
// computed into a copy of dst.
func kernelOracle(f *Field, a Elem, dst []Elem, ds int, src []Elem, ss, n int, acc bool) []Elem {
	out := append([]Elem(nil), dst...)
	for i := 0; i < n; i++ {
		p := f.mulRef(a, src[i*ss])
		if acc {
			p ^= out[i*ds]
		}
		out[i*ds] = p
	}
	return out
}

// routeLengths are row lengths on both sides of each table-less route
// cutover: every length up to twice nibbleMinLen, three either side of
// splitMinLen, and twice splitMinLen.
func routeLengths() []int {
	var ns []int
	for n := 0; n <= 2*nibbleMinLen; n++ {
		ns = append(ns, n)
	}
	for n := splitMinLen - 3; n <= splitMinLen+3; n++ {
		ns = append(ns, n)
	}
	return append(ns, 2*splitMinLen)
}

// TestSplitKernelMatchesReference drives AXPY, MulSlice (in place and not)
// and AXPYStride over every table-less degree and row lengths on both
// sides of each cutover (routeLengths), so the window, nibble-table and
// split-table paths all run on each degree, against the bit-serial
// reference.
func TestSplitKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for m := uint(tableMaxDegree + 1); m <= 64; m++ {
		f := MustNew(m)
		for _, n := range routeLengths() {
			for _, a := range []Elem{0, 1, f.Rand(rng), f.Rand(rng) | 1<<(m-1)} {
				ds, ss := 1+rng.Intn(3), 1+rng.Intn(3)
				src := randRow(f, rng, max(1, n*ss))
				dst := randRow(f, rng, max(1, n*ds))
				for _, tc := range []struct {
					name string
					acc  bool
					run  func(dst []Elem)
				}{
					{"AXPY", true, func(d []Elem) { f.AXPY(a, d[:n], src[:n]) }},
					{"MulSlice", false, func(d []Elem) { f.MulSlice(a, d[:n], src[:n]) }},
					{"AXPYStride", true, func(d []Elem) { f.AXPYStride(a, d, ds, src, ss, n) }},
				} {
					dStride, sStride := 1, 1
					if tc.name == "AXPYStride" {
						dStride, sStride = ds, ss
					}
					want := kernelOracle(f, a, dst, dStride, src, sStride, n, tc.acc)
					got := append([]Elem(nil), dst...)
					tc.run(got)
					if !equalElems(got, want) {
						t.Fatalf("GF(2^%d) %s a=%#x n=%d strides=(%d,%d): got %x want %x", m, tc.name, a, n, dStride, sStride, got, want)
					}
				}
				// MulSlice writing in place over its own source.
				row := append([]Elem(nil), src[:n]...)
				want := kernelOracle(f, a, row, 1, row, 1, n, false)
				f.MulSlice(a, row, row)
				if !equalElems(row, want) {
					t.Fatalf("GF(2^%d) in-place MulSlice a=%#x n=%d: got %x want %x", m, a, n, row, want)
				}
			}
		}
	}
}

// TestKernelsMaskSource pins the rule for a non-canonical source element:
// every kernel multiplies its low m bits, as Mul does, on every degree and
// on both sides of each route cutover.
func TestKernelsMaskSource(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for m := uint(1); m < 64; m++ {
		f := MustNew(m)
		for _, n := range []int{nibbleMinLen - 1, nibbleMinLen, splitMinLen - 1, splitMinLen} {
			a := f.Rand(rng) | 1
			src := make([]Elem, n)
			for i := range src {
				src[i] = rng.Uint64() | ^f.max // garbage above bit m-1
			}
			got := make([]Elem, n)
			f.MulSlice(a, got, src)
			acc := make([]Elem, n)
			f.AXPY(a, acc, src)
			one := make([]Elem, n)
			f.MulSlice(1, one, src)
			for i, s := range src {
				if want := f.Mul(a, s); got[i] != want || acc[i] != want {
					t.Fatalf("GF(2^%d) n=%d: a*%#x = MulSlice %#x, AXPY %#x, Mul %#x", m, n, s, got[i], acc[i], want)
				}
				if one[i] != s&f.max {
					t.Fatalf("GF(2^%d): 1*%#x = %#x, want %#x", m, s, one[i], s&f.max)
				}
			}
		}
	}
}

// FuzzKernel cross-checks the strided kernel against the reference on
// fuzzer-chosen degree, scalar, length, strides and data. Lengths reach
// twice splitMinLen, so every route and both cutovers are in range.
func FuzzKernel(f *testing.F) {
	f.Add(uint8(64), uint64(0x1b), uint16(40), uint8(1), uint8(2), int64(1))
	f.Add(uint8(17), uint64(1), uint16(3), uint8(3), uint8(1), int64(2))
	f.Add(uint8(63), uint64(0xfeed), uint16(splitMinLen), uint8(2), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, deg uint8, a uint64, n uint16, ds, ss uint8, seed int64) {
		fld := MustNew(1 + uint(deg)%64)
		rows, dStride, sStride := int(n)%(2*splitMinLen+1), 1+int(ds)%4, 1+int(ss)%4
		rng := rand.New(rand.NewSource(seed))
		src := make([]Elem, max(1, rows*sStride))
		for i := range src {
			src[i] = rng.Uint64() & fld.max
		}
		dst := randRow(fld, rng, max(1, rows*dStride))
		want := kernelOracle(fld, a, dst, dStride, src, sStride, rows, true)
		fld.AXPYStride(a, dst, dStride, src, sStride, rows)
		if !equalElems(dst, want) {
			t.Fatalf("GF(2^%d) a=%#x n=%d strides=(%d,%d): got %x want %x", fld.m, a, rows, dStride, sStride, dst, want)
		}
	})
}

func randRow(f *Field, rng *rand.Rand, n int) []Elem {
	out := make([]Elem, n)
	for i := range out {
		out[i] = f.Rand(rng)
	}
	return out
}

func equalElems(a, b []Elem) bool {
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

// BenchmarkGFMul measures the scalar product on a tabled field, a windowed
// field, and the bit-serial reference loop.
func BenchmarkGFMul(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeedGF))
	for _, bc := range []struct {
		name string
		m    uint
		ref  bool
	}{
		{"m16/table", 16, false},
		{"m64/clmul", 64, false},
		{"m16/reference", 16, true},
		{"m64/reference", 64, true},
	} {
		f := MustNew(bc.m)
		xs := make([]Elem, 1024)
		for i := range xs {
			for xs[i] == 0 {
				xs[i] = f.Rand(rng)
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var acc Elem
			for i := 0; i < b.N; i++ {
				x, y := xs[i&1023], xs[(i+7)&1023]
				if bc.ref {
					acc ^= f.mulRef(x, y)
				} else {
					acc ^= f.Mul(x, y)
				}
			}
			sinkElem = acc
		})
	}
}

// BenchmarkGFAXPY measures the bulk row kernel on both regimes.
func BenchmarkGFAXPY(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeedGF))
	for _, m := range []uint{16, 64} {
		f := MustNew(m)
		src := make([]Elem, 256)
		dst := make([]Elem, 256)
		for i := range src {
			src[i] = f.Rand(rng)
		}
		a := f.Rand(rng) | 2
		b.Run(map[uint]string{16: "m16", 64: "m64"}[m], func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src) * 8))
			for i := 0; i < b.N; i++ {
				f.AXPY(a, dst, src)
			}
			sinkElem = dst[0]
		})
	}
}

// BenchmarkSplitCutover times one AXPY row at m = 64 through each
// table-less path at lengths around nibbleMinLen and splitMinLen; the
// crossovers of window and nibble, and of nibble and split, set the two
// constants.
func BenchmarkSplitCutover(b *testing.B) {
	f := MustNew(64)
	rng := rand.New(rand.NewSource(benchSeedGF))
	a := f.Rand(rng) | 2
	for _, n := range []int{1, 2, 4, 5, 6, 8, 16, 32, 64, 128, 224, 256, 288, 320, 384, 512, 1024} {
		src, dst := randRow(f, rng, n), make([]Elem, n)
		b.Run(fmt.Sprintf("window/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				var w window
				w.init(a)
				for i, s := range src {
					hi, lo := w.mul(s, f.m)
					dst[i] ^= f.reduceWide(hi, lo)
				}
			}
		})
		b.Run(fmt.Sprintf("nibble/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				f.bulkNibble(a, dst, 1, src, 1, n, true)
			}
		})
		b.Run(fmt.Sprintf("split/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				f.bulkSplit(a, dst, 1, src, 1, n, true)
			}
		})
	}
}

// BenchmarkAXPYStride times one column update at m = 64 as Scheme.encode
// runs it (stride rho = 4 on both sides) at a 2-stripe, a 32-stripe and a
// 2 048-stripe value: the shapes of a 64 B, a 1 KiB and a 64 KiB payload
// on K7 with f = 2.
func BenchmarkAXPYStride(b *testing.B) {
	f := MustNew(64)
	rng := rand.New(rand.NewSource(benchSeedGF))
	a := f.Rand(rng) | 2
	const stride = 4
	for _, n := range []int{2, 32, 2048} {
		src, dst := randRow(f, rng, n*stride), make([]Elem, n*stride)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for b.Loop() {
				f.AXPYStride(a, dst, stride, src, stride, n)
			}
		})
	}
}

const benchSeedGF = 2012

// sinkElem defeats dead-code elimination in benchmarks.
var sinkElem Elem
