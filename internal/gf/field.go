// Package gf implements arithmetic in binary extension fields GF(2^m) for
// 1 <= m <= 64.
//
// Field elements are represented as uint64 bit vectors: bit i holds the
// coefficient of x^i of the residue polynomial. Multiplication is carry-less
// (polynomial) multiplication followed by reduction modulo a fixed
// irreducible polynomial of degree m. Irreducible polynomials are found by
// deterministic search using Rabin's irreducibility test, so no hard-coded
// table is required; the search result is cached per m.
//
// Products take one of four routes, all equal to the bit-serial reference
// mulRef. Costs are at m = 64 on a 2-vCPU x86-64 Xeon VM
// (BenchmarkSplitCutover):
//
//   - m <= 16: shared log/antilog tables, one lookup pair per product, for
//     scalar Mul and the bulk kernels alike.
//   - m > 16, scalar Mul and rows shorter than nibbleMinLen (5) elements:
//     a 4-bit-window carry-less multiply followed by sparse reduction,
//     75-100 ns per product and no setup.
//   - m > 16, rows from nibbleMinLen up to splitMinLen (384) elements in
//     the bulk kernels MulSlice, AXPY and AXPYStride: a nibble table for
//     the row's scalar a, ceil(m/4) fully reduced 16-entry tables
//     T_k[b] = a*(b*x^(4k)) (2 KiB, ~0.33 µs to build), so each product is
//     sixteen lookups XORed together, ~5 ns.
//   - m > 16, rows of at least splitMinLen elements: the same with bytes,
//     ceil(m/8) 256-entry tables (16 KiB, ~1.2 µs to build), eight
//     lookups per product, ~2.7 ns.
//
// The bulk kernels multiply the low m bits of each source element, as Mul
// does with its operands. Inverses come from the log tables for m <= 16
// and from the extended Euclidean algorithm over GF(2)[x] beyond.
//
// The package is the symbol substrate for the local linear coding equality
// check of NAB: values received in Phase 1 are interpreted as vectors of
// rho symbols over GF(2^(L/rho)).
package gf

import (
	"fmt"
	"math/bits"
	"sync"
)

// Elem is an element of some GF(2^m), valid only relative to the Field that
// produced or consumed it. Only the low m bits may be set.
type Elem = uint64

// Field is an arithmetic context for GF(2^m). It is immutable after
// construction and safe for concurrent use.
type Field struct {
	m   uint    // extension degree, 1..64
	mod uint64  // irreducible polynomial without the x^m term (low m bits)
	max uint64  // mask of m low bits; also the maximum element value
	tab *tables // discrete-log tables, non-nil iff m <= tableMaxDegree
}

const maxDegree = 64

// New returns the field GF(2^m) using the lexicographically smallest
// irreducible polynomial of degree m. It returns an error if m is outside
// [1, 64]. Degrees up to 16 get precomputed log/antilog tables (built once
// per degree and shared), so their Mul/Inv are single lookups; larger
// degrees use carry-less window multiplication and a Euclidean inverse.
func New(m uint) (*Field, error) {
	if m < 1 || m > maxDegree {
		return nil, fmt.Errorf("gf: degree %d out of range [1,%d]", m, maxDegree)
	}
	f := &Field{m: m, mod: irreducibleTail(m), max: maskBits(m)}
	if m <= tableMaxDegree {
		f.tab = tablesFor(m, f)
	}
	return f, nil
}

// MustNew is New, panicking on invalid m. Intended for package-level setup
// in tests and examples where the degree is a constant.
func MustNew(m uint) *Field {
	f, err := New(m)
	if err != nil {
		panic(err)
	}
	return f
}

// Mask returns the bit mask covering valid element bits (2^m - 1).
func (f *Field) Mask() uint64 { return f.max }

// Add returns a + b. In characteristic 2 addition is XOR and is its own
// inverse, so Add also implements subtraction.
func (f *Field) Add(a, b Elem) Elem { return (a ^ b) & f.max }

// Sub returns a - b (identical to Add in characteristic 2).
func (f *Field) Sub(a, b Elem) Elem { return (a ^ b) & f.max }

// Mul returns the product a*b in the field; bits of a or b above m are
// ignored. Tabled degrees (m <= 16) resolve it as exp[log a + log b];
// larger degrees take a 4-bit-window carry-less multiply followed by
// sparse modular reduction, since one product cannot pay for a split
// table (see AXPY). Both agree with the bit-serial reference loop mulRef
// (asserted exhaustively in tests).
func (f *Field) Mul(a, b Elem) Elem {
	a &= f.max
	b &= f.max
	if a == 0 || b == 0 {
		return 0
	}
	if t := f.tab; t != nil {
		return Elem(t.exp[uint32(t.log[a])+uint32(t.log[b])])
	}
	hi, lo := clMul64(a, b, f.m)
	return f.reduceWide(hi, lo)
}

// mulRef is the bit-serial reference multiply: carry-less multiplication
// interleaved with modular reduction so the accumulator never exceeds m
// bits (classic Russian-peasant loop). It is the correctness oracle for the
// table-driven and windowed kernels and the substrate table construction
// itself runs on.
func (f *Field) mulRef(a, b Elem) Elem {
	a &= f.max
	b &= f.max
	if a == 0 || b == 0 {
		return 0
	}
	var acc uint64
	hi := uint64(1) << (f.m - 1)
	for b != 0 {
		if b&1 != 0 {
			acc ^= a
		}
		b >>= 1
		carry := a & hi
		a = (a << 1) & f.max
		if carry != 0 {
			a ^= f.mod
		}
	}
	return acc & f.max
}

// Inv returns the multiplicative inverse of a, or an error if a == 0.
// Tabled degrees read it as exp[order - log a]; larger degrees run the
// extended Euclidean algorithm (invEuclid). Both agree with Fermat's
// a^(2^m-2) on the reference multiply (asserted in tests).
func (f *Field) Inv(a Elem) (Elem, error) {
	a &= f.max
	if a == 0 {
		return 0, fmt.Errorf("gf: zero has no inverse in GF(2^%d)", f.m)
	}
	if t := f.tab; t != nil {
		order := uint32(f.max) // 2^m - 1, the multiplicative group order
		return Elem(t.exp[order-uint32(t.log[a])]), nil
	}
	return f.invEuclid(a), nil
}

// invEuclid returns a^-1 for a nonzero canonical a by the extended
// Euclidean algorithm over GF(2)[x] on p = x^m + mod and a, in the
// shift-and-subtract form (Hankerson, Menezes and Vanstone, Algorithm
// 2.48): u = g1*a and v = g2*a (mod p) hold throughout, each step cancels
// the leading term of u by a shift of v, swapping the two first when v has
// the higher degree, and u reaches 1 because p is irreducible. v only ever
// takes a former u, so it is never 1 itself, and the Bezout coefficients
// stay below degree m. Every value therefore fits the word except p: the
// first step, u = p - x^s*a with s = m - deg(a), cancels the x^m term
// before it is ever stored.
func (f *Field) invEuclid(a Elem) Elem {
	da := bits.Len64(a) - 1
	if da == 0 {
		return 1
	}
	s := f.m - uint(da)
	u, v := f.mod^(a<<s)&f.max, a
	g1, g2 := Elem(1)<<s, Elem(1)
	for u != 1 {
		j := bits.Len64(u) - bits.Len64(v)
		if j < 0 {
			u, v, g1, g2, j = v, u, g2, g1, -j
		}
		u ^= v << j
		g1 ^= g2 << j
	}
	return g1
}

// Rand returns a uniformly random field element drawn from src. src must
// return uniformly random uint64 values (e.g. (*math/rand.Rand).Uint64).
func (f *Field) Rand(src interface{ Uint64() uint64 }) Elem {
	return src.Uint64() & f.max
}

// String implements fmt.Stringer.
func (f *Field) String() string {
	return fmt.Sprintf("GF(2^%d) mod x^%d+%#x", f.m, f.m, f.mod)
}

func maskBits(m uint) uint64 {
	if m >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << m) - 1
}

// --- irreducible polynomial search -----------------------------------------

var (
	irredMu    sync.Mutex
	irredCache = map[uint]uint64{}
)

// irreducibleTail returns the low coefficients r of the lexicographically
// smallest irreducible polynomial x^m + r of degree m. Results are cached.
func irreducibleTail(m uint) uint64 {
	irredMu.Lock()
	defer irredMu.Unlock()
	if r, ok := irredCache[m]; ok {
		return r
	}
	r := searchIrreducible(m)
	irredCache[m] = r
	return r
}

func searchIrreducible(m uint) uint64 {
	if m == 1 {
		return 1 // x + 1, keeping the odd-tail invariant uniform
	}
	// A polynomial with zero constant term is divisible by x, so the tail
	// must be odd. Iterate odd tails in increasing order.
	for r := uint64(1); ; r += 2 {
		if r > maskBits(m) {
			// Cannot happen: irreducible polynomials of every degree exist.
			panic(fmt.Sprintf("gf: no irreducible polynomial of degree %d found", m))
		}
		if rabinIrreducible(m, r) {
			return r
		}
	}
}

// rabinIrreducible reports whether x^m + r is irreducible over GF(2), using
// Rabin's test: p is irreducible iff x^(2^m) == x (mod p) and for every
// prime divisor q of m, gcd(x^(2^(m/q)) - x, p) == 1.
func rabinIrreducible(m uint, r uint64) bool {
	// Work with polynomials modulo p = x^m + r, elements as m-bit vectors.
	f := Field{m: m, mod: r, max: maskBits(m)}
	x := Elem(2) // the polynomial "x"

	// frob computes x^(2^k) mod p by repeated squaring.
	frob := func(k uint) Elem {
		e := x
		for i := uint(0); i < k; i++ {
			e = f.Mul(e, e)
		}
		return e
	}

	if frob(m) != x {
		return false
	}
	for _, q := range primeFactors(m) {
		h := f.Sub(frob(m/q), x) // x^(2^(m/q)) - x as a residue
		if polyGCDWithModulus(m, r, h) != 1 {
			return false
		}
	}
	return true
}

// polyGCDWithModulus returns gcd(p, h) where p = x^m + r (degree m) and h is
// a residue polynomial of degree < m, both over GF(2). The result is the
// gcd's bit representation; 1 means coprime. h == 0 yields p itself, which
// is reported as a non-unit sentinel (2).
func polyGCDWithModulus(m uint, r, h uint64) uint64 {
	if h == 0 {
		return 2 // gcd is p, definitely not a unit
	}
	// First reduction step: p mod h, computed without materializing the
	// degree-m bit (which may not fit when m == 64).
	a := polyModHighBit(m, r, h)
	b := h
	for a != 0 {
		a, b = polyMod(b, a), a
	}
	return b
}

// polyModHighBit computes (x^m + r) mod h for h != 0 of degree < m.
func polyModHighBit(m uint, r, h uint64) uint64 {
	dh := uint(bits.Len64(h)) - 1
	if dh == 0 {
		return 0 // h == 1: everything is 0 mod 1
	}
	// Compute x^m mod h by shifting x^dh repeatedly.
	// Start with x^dh mod h = h ^ (1<<dh) (strip the leading term).
	cur := h ^ (uint64(1) << dh)
	for i := uint(0); i < m-dh; i++ {
		carry := cur & (uint64(1) << (dh - 1)) // about to shift into degree dh
		cur <<= 1
		if carry != 0 {
			cur ^= h
		}
		cur &= maskBits(dh)
	}
	return cur ^ polyMod(r, h)
}

// polyMod returns a mod b over GF(2), b != 0.
func polyMod(a, b uint64) uint64 {
	db := bits.Len64(b) - 1
	for bits.Len64(a)-1 >= db && a != 0 {
		a ^= b << (uint(bits.Len64(a)-1) - uint(db))
	}
	return a
}

func primeFactors(m uint) []uint {
	var out []uint
	for p := uint(2); p*p <= m; p++ {
		if m%p == 0 {
			out = append(out, p)
			for m%p == 0 {
				m /= p
			}
		}
	}
	if m > 1 {
		out = append(out, m)
	}
	return out
}
