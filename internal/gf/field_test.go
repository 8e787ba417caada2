package gf

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadDegrees(t *testing.T) {
	for _, m := range []uint{0, 65, 100} {
		if _, err := New(m); err == nil {
			t.Errorf("New(%d): expected error, got nil", m)
		}
	}
}

func TestNewAcceptsAllSupportedDegrees(t *testing.T) {
	for m := uint(1); m <= 64; m++ {
		f, err := New(m)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		if f.m != m {
			t.Errorf("New(%d) has degree %d", m, f.m)
		}
	}
}

func TestKnownIrreducibles(t *testing.T) {
	// Cross-check the search against well-known minimal irreducible
	// polynomials: x^2+x+1, x^3+x+1, x^4+x+1, x^8+x^4+x^3+x+1 is NOT the
	// lexicographically smallest for m=8 (that is x^8+x^4+x^3+x^2+1 = 0x1D,
	// the Rijndael-adjacent 0x11B has tail 0x1B).
	cases := map[uint]uint64{
		1: 0x1, // x+1
		2: 0x3, // x^2+x+1
		3: 0x3, // x^3+x+1
		4: 0x3, // x^4+x+1
	}
	for m, want := range cases {
		f := MustNew(m)
		if f.mod != want {
			t.Errorf("GF(2^%d) modulus tail = %#x, want %#x", m, f.mod, want)
		}
	}
}

func TestIrreducibleHasNoRoots(t *testing.T) {
	// An irreducible polynomial of degree >= 2 has no roots in GF(2):
	// constant term 1 (no root 0) and an odd number of terms (no root 1).
	for m := uint(2); m <= 64; m++ {
		tail := irreducibleTail(m)
		if tail&1 == 0 {
			t.Errorf("m=%d: tail %#x has zero constant term", m, tail)
		}
		// total terms = popcount(tail) + 1 (the x^m term) must be odd
		if (bits.OnesCount64(tail)+1)%2 == 0 {
			t.Errorf("m=%d: polynomial has even weight, root at 1", m)
		}
	}
}

func TestMulSmallFieldExhaustive(t *testing.T) {
	// GF(2^4) with x^4+x+1 is a standard textbook field; exhaustively
	// verify group structure of nonzero elements under Mul.
	f := MustNew(4)
	// Every nonzero element must have multiplicative order dividing 15.
	for a := Elem(1); a <= 15; a++ {
		if got := f.powRef(a, 15); got != 1 {
			t.Errorf("a=%d: a^15 = %d, want 1", a, got)
		}
	}
	// x = 2 must be primitive in GF(16) with modulus x^4+x+1.
	seen := map[Elem]bool{}
	e := Elem(1)
	for i := 0; i < 15; i++ {
		seen[e] = true
		e = f.Mul(e, 2)
	}
	if len(seen) != 15 {
		t.Errorf("x generates %d elements, want 15", len(seen))
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, m := range []uint{1, 3, 8, 16, 31, 32, 53, 64} {
		f := MustNew(m)
		mask := f.Mask()

		assoc := func(a, b, c uint64) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
		}
		if err := quick.Check(assoc, nil); err != nil {
			t.Errorf("m=%d associativity: %v", m, err)
		}

		distrib := func(a, b, c uint64) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
		}
		if err := quick.Check(distrib, nil); err != nil {
			t.Errorf("m=%d distributivity: %v", m, err)
		}

		comm := func(a, b uint64) bool {
			a, b = a&mask, b&mask
			return f.Mul(a, b) == f.Mul(b, a)
		}
		if err := quick.Check(comm, nil); err != nil {
			t.Errorf("m=%d commutativity: %v", m, err)
		}

		identity := func(a uint64) bool {
			a &= mask
			return f.Mul(a, 1) == a && f.Add(a, 0) == a
		}
		if err := quick.Check(identity, nil); err != nil {
			t.Errorf("m=%d identity: %v", m, err)
		}

		inverse := func(a uint64) bool {
			a &= mask
			if a == 0 {
				return true
			}
			inv, err := f.Inv(a)
			return err == nil && f.Mul(a, inv) == 1
		}
		if err := quick.Check(inverse, nil); err != nil {
			t.Errorf("m=%d inverse: %v", m, err)
		}

		addSelfInverse := func(a uint64) bool {
			a &= mask
			return f.Add(a, a) == 0 && f.Sub(a, a) == 0
		}
		if err := quick.Check(addSelfInverse, nil); err != nil {
			t.Errorf("m=%d characteristic 2: %v", m, err)
		}
	}
}

// TestPowMatchesRepeatedMul checks powRef, the Fermat oracle the inverse
// is tested against, against iterated Mul on a tabled and a table-less
// degree.
func TestPowMatchesRepeatedMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []uint{13, 64} {
		f := MustNew(m)
		for i := 0; i < 50; i++ {
			a := f.Rand(rng)
			want := Elem(1)
			for e := uint64(0); e <= 20; e++ {
				if got := f.powRef(a, e); got != want {
					t.Fatalf("GF(2^%d): powRef(%d,%d) = %d, want %d", m, a, e, got, want)
				}
				want = f.Mul(want, a)
			}
		}
	}
}

func TestInvZeroFails(t *testing.T) {
	f := MustNew(8)
	if _, err := f.Inv(0); err == nil {
		t.Error("Inv(0): expected error")
	}
}

func TestRandStaysInField(t *testing.T) {
	f := MustNew(5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if e := f.Rand(rng); e&^f.max != 0 {
			t.Fatalf("Rand produced out-of-field element %d", e)
		}
	}
}

func TestFrobeniusFixedField(t *testing.T) {
	// In GF(2^m), a^(2^m) == a for all a (the Frobenius map iterated m
	// times is the identity).
	for _, m := range []uint{2, 5, 8, 12} {
		f := MustNew(m)
		rng := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < 25; i++ {
			a := f.Rand(rng)
			e := a
			for j := uint(0); j < m; j++ {
				e = f.Mul(e, e)
			}
			if e != a {
				t.Errorf("m=%d: a^(2^m) = %d != a = %d", m, e, a)
			}
		}
	}
}

func TestStringFormat(t *testing.T) {
	f := MustNew(8)
	if f.String() == "" {
		t.Error("String() should be non-empty")
	}
}

func BenchmarkMul16(b *testing.B) { benchMul(b, 16) }
func BenchmarkMul64(b *testing.B) { benchMul(b, 64) }

func benchMul(b *testing.B, m uint) {
	f := MustNew(m)
	rng := rand.New(rand.NewSource(1))
	x, y := f.Rand(rng), f.Rand(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, y|1)
	}
	_ = x
}

func BenchmarkInv32(b *testing.B) { benchInv(b, 32) }
func BenchmarkInv64(b *testing.B) { benchInv(b, 64) }

func benchInv(b *testing.B, m uint) {
	f := MustNew(m)
	rng := rand.New(rand.NewSource(1))
	x := f.Rand(rng) | 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _ = f.Inv(x)
		x |= 1
	}
}
