package linalg

import (
	"math/rand"
	"testing"

	"nab/internal/gf"
)

// TestMulVecIntoMatchesMulVec checks the allocation-free vector product
// against the reference product, over a dirty destination.
func TestMulVecIntoMatchesMulVec(t *testing.T) {
	for _, deg := range []uint{8, 16, 64} {
		f := gf.MustNew(deg)
		rng := rand.New(rand.NewSource(int64(deg) + 100))
		m, _ := Random(f, 6, 9, rng)
		x := make([]gf.Elem, 6)
		for i := range x {
			x[i] = f.Rand(rng)
		}
		want := mulRef(fromRows(t, f, [][]gf.Elem{x}), m).data
		dst := make([]gf.Elem, 9)
		for i := range dst {
			dst[i] = ^gf.Elem(0) // dirty: MulVecInto must overwrite
		}
		if err := m.MulVecInto(x, dst); err != nil {
			t.Fatalf("GF(2^%d): MulVecInto: %v", deg, err)
		}
		for j := range want {
			if dst[j] != want[j] {
				t.Fatalf("GF(2^%d): MulVecInto[%d] = %#x, want %#x", deg, j, dst[j], want[j])
			}
		}
	}
}

// TestMulVecIntoZeroAlloc pins the hot vector product at zero allocations.
func TestMulVecIntoZeroAlloc(t *testing.T) {
	f := gf.MustNew(16)
	rng := rand.New(rand.NewSource(1))
	m, _ := Random(f, 33, 8, rng)
	x := make([]gf.Elem, 33)
	for i := range x {
		x[i] = f.Rand(rng)
	}
	dst := make([]gf.Elem, 8)
	if avg := testing.AllocsPerRun(200, func() {
		if err := m.MulVecInto(x, dst); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("MulVecInto allocates %.1f times per call, want 0", avg)
	}
}

// BenchmarkMulVec measures the coded-symbol product Y_e = X * C_e at the
// dimensions the benchmark topologies use (OneThinLink: rho=33 over
// GF(2^16); K7 stripes: rho=4 over GF(2^64)).
func BenchmarkMulVec(b *testing.B) {
	for _, bc := range []struct {
		name       string
		deg        uint
		rows, cols int
	}{
		{"GF16_33x8", 16, 33, 8},
		{"GF64_4x1", 64, 4, 1},
		{"GF64_16x16", 64, 16, 16},
	} {
		f := gf.MustNew(bc.deg)
		rng := rand.New(rand.NewSource(2012))
		m, _ := Random(f, bc.rows, bc.cols, rng)
		x := make([]gf.Elem, bc.rows)
		for i := range x {
			x[i] = f.Rand(rng)
		}
		dst := make([]gf.Elem, bc.cols)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.MulVecInto(x, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
