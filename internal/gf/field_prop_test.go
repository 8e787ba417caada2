package gf

import (
	"math/rand"
	"testing"
)

// Property tests: the field axioms must hold for random elements over a
// spread of extension degrees, including the machine-word corner m=64 —
// the widths the equality check actually instantiates (symBits in
// [1,64]).

var propDegrees = []uint{1, 2, 3, 5, 8, 13, 16, 24, 32, 47, 63, 64}

func randElems(t *testing.T, f *Field, rng *rand.Rand, n int) []Elem {
	t.Helper()
	out := make([]Elem, n)
	for i := range out {
		out[i] = f.Rand(rng)
		if out[i]&^f.max != 0 {
			t.Fatalf("GF(2^%d): Rand produced invalid element %#x", f.m, out[i])
		}
	}
	return out
}

func TestFieldAxiomsProperty(t *testing.T) {
	const trials = 200
	for _, m := range propDegrees {
		f := MustNew(m)
		rng := rand.New(rand.NewSource(int64(m) * 7919))
		for i := 0; i < trials; i++ {
			abc := randElems(t, f, rng, 3)
			a, b, c := abc[0], abc[1], abc[2]

			// Commutativity.
			if f.Add(a, b) != f.Add(b, a) {
				t.Fatalf("GF(2^%d): a+b != b+a for %#x, %#x", m, a, b)
			}
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("GF(2^%d): a*b != b*a for %#x, %#x", m, a, b)
			}
			// Associativity.
			if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
				t.Fatalf("GF(2^%d): (a+b)+c != a+(b+c) for %#x, %#x, %#x", m, a, b, c)
			}
			if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
				t.Fatalf("GF(2^%d): (a*b)*c != a*(b*c) for %#x, %#x, %#x", m, a, b, c)
			}
			// Distributivity.
			if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
				t.Fatalf("GF(2^%d): a*(b+c) != a*b + a*c for %#x, %#x, %#x", m, a, b, c)
			}
			// Identities and additive inverse (characteristic 2).
			if f.Add(a, 0) != a || f.Mul(a, 1) != a || f.Mul(a, 0) != 0 {
				t.Fatalf("GF(2^%d): identity axioms failed for %#x", m, a)
			}
			if f.Add(a, a) != 0 {
				t.Fatalf("GF(2^%d): a+a != 0 for %#x", m, a)
			}
			// Multiplicative inverse.
			if a != 0 {
				inv, err := f.Inv(a)
				if err != nil {
					t.Fatalf("GF(2^%d): Inv(%#x): %v", m, a, err)
				}
				if f.Mul(a, inv) != 1 {
					t.Fatalf("GF(2^%d): a * a^-1 = %#x != 1 for %#x", m, f.Mul(a, inv), a)
				}
			}
			// Sub is Add in characteristic 2, and b^-1 undoes b.
			if f.Sub(f.Add(a, b), b) != a {
				t.Fatalf("GF(2^%d): (a+b)-b != a for %#x, %#x", m, a, b)
			}
			if b != 0 {
				bi, err := f.Inv(b)
				if q := f.Mul(f.Mul(a, b), bi); err != nil || q != a {
					t.Fatalf("GF(2^%d): (a*b)*b^-1 = %#x (err %v), want %#x", m, q, err, a)
				}
			}
		}
		// powRef agrees with iterated Mul, and Fermat holds on a sample
		// (a^(2^m) == a via square-chain).
		a := f.Rand(rng)
		want := Elem(1)
		for i := 0; i < 13; i++ {
			if got := f.powRef(a, uint64(i)); got != want {
				t.Fatalf("GF(2^%d): powRef(a,%d) = %#x, want %#x", m, i, got, want)
			}
			want = f.Mul(want, a)
		}
		frob := a
		for i := uint(0); i < m; i++ {
			frob = f.Mul(frob, frob)
		}
		if frob != a {
			t.Fatalf("GF(2^%d): Frobenius a^(2^m) = %#x != a = %#x", m, frob, a)
		}
	}
}

func TestInvZeroRejectedProperty(t *testing.T) {
	for _, m := range propDegrees {
		f := MustNew(m)
		if _, err := f.Inv(0); err == nil {
			t.Errorf("GF(2^%d): Inv(0) did not fail", m)
		}
	}
}
