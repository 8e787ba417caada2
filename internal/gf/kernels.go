package gf

import "math/bits"

// Bulk kernels for the coding hot path. Matrix products, encodes and
// Gaussian elimination all reduce to rows scaled by one scalar, so the
// kernels amortize the per-scalar setup over a whole row: a log lookup for
// m <= 16; for larger m a 4-bit carry-less window on the shortest rows, a
// nibble table (nibbleTable) on mid-length rows and a split table
// (splitTable) on long ones.
//
// Every kernel reads src through Mask, so a non-canonical source element
// (bits set above m) is multiplied as its low m bits, exactly as Mul does.

// nibbleMinLen and splitMinLen are the row lengths from which the
// table-less kernels build a nibble table instead of running the 4-bit
// window, and a split table instead of a nibble table. At m = 64 the
// window costs 75-100 ns per element and no setup; the nibble table
// ~0.33 µs to build and ~5 ns per element; the split table ~1.2 µs to
// build and ~2.7 ns per element (BenchmarkSplitCutover on a 2-vCPU x86-64
// Xeon VM, fastest of 12 runs). Window and nibble cross between 4 and 5
// elements, nibble and split between about 290 and 470. Smaller degrees
// fill fewer table entries and multiply in fewer window steps alike,
// which leaves the crossovers about where they are.
const (
	nibbleMinLen = 5
	splitMinLen  = 384
)

// MulSlice sets dst[i] = a * src[i] for every i. dst and src must have the
// same length; dst may alias src (in-place row normalization).
//
//nab:allocfree
func (f *Field) MulSlice(a Elem, dst, src []Elem) {
	f.bulk(a, dst, 1, src, 1, len(src), false)
}

// AXPY accumulates dst[i] ^= a * src[i] for every i — the row update of
// Gaussian elimination and the inner step of matrix products (XOR is
// addition in characteristic 2). dst and src must have the same length and
// must not overlap unless identical. On a table-less field a row of
// nibbleMinLen or more elements runs through a table built for a on the
// stack (a split table from splitMinLen); a shorter row runs through the
// 4-bit window.
//
//nab:allocfree
func (f *Field) AXPY(a Elem, dst, src []Elem) {
	f.bulk(a, dst, 1, src, 1, len(src), true)
}

// AXPYStride is AXPY over strided views: dst[i*dstStride] ^= a *
// src[i*srcStride] for i in [0, n). It walks one column of a row-major
// matrix, such as symbol j of every stripe of a striped value, in one
// pass with one scalar setup.
//
//nab:allocfree
func (f *Field) AXPYStride(a Elem, dst []Elem, dstStride int, src []Elem, srcStride, n int) {
	f.bulk(a, dst, dstStride, src, srcStride, n, true)
}

// bulk is the one row kernel behind MulSlice, AXPY and AXPYStride: for
// i < n it computes p = a * src[i*ss] and stores dst[i*ds] ^= p when acc
// is set, dst[i*ds] = p otherwise.
//
//nab:allocfree
func (f *Field) bulk(a Elem, dst []Elem, ds int, src []Elem, ss, n int, acc bool) {
	a &= f.max
	switch {
	case a == 0:
		if !acc {
			for i := 0; i < n; i++ {
				dst[i*ds] = 0
			}
		}
	case a == 1:
		for i := 0; i < n; i++ {
			p := src[i*ss] & f.max
			if acc {
				p ^= dst[i*ds]
			}
			dst[i*ds] = p
		}
	case f.tab != nil:
		t := f.tab
		la := uint32(t.log[a])
		for i := 0; i < n; i++ {
			var p Elem
			if s := src[i*ss] & f.max; s != 0 {
				p = Elem(t.exp[la+uint32(t.log[s])])
			}
			if acc {
				p ^= dst[i*ds]
			}
			dst[i*ds] = p
		}
	case n >= splitMinLen:
		f.bulkSplit(a, dst, ds, src, ss, n, acc)
	case n >= nibbleMinLen:
		f.bulkNibble(a, dst, ds, src, ss, n, acc)
	default:
		var w window
		w.init(a)
		for i := 0; i < n; i++ {
			hi, lo := w.mul(src[i*ss]&f.max, f.m)
			p := f.reduceWide(hi, lo)
			if acc {
				p ^= dst[i*ds]
			}
			dst[i*ds] = p
		}
	}
}

// bulkSplit is bulk's long-row path for table-less fields. It is its own
// function so that the 16 KiB table sits only in this frame, not in every
// short-row caller's.
//
//nab:allocfree
func (f *Field) bulkSplit(a Elem, dst []Elem, ds int, src []Elem, ss, n int, acc bool) {
	var t splitTable
	fillSplit(f, a, t[:])
	for i := 0; i < n; i++ {
		p := t.mul(src[i*ss] & f.max)
		if acc {
			p ^= dst[i*ds]
		}
		dst[i*ds] = p
	}
}

// bulkNibble is bulk's mid-length-row path for table-less fields, in its
// own frame for the same reason as bulkSplit. The sixteen lookups of a
// product are written out in the loop: as a method they exceed the
// inliner's budget, which would put a call in every product.
//
//nab:allocfree
func (f *Field) bulkNibble(a Elem, dst []Elem, ds int, src []Elem, ss, n int, acc bool) {
	var t nibbleTable
	fillSplit(f, a, t[:])
	for i := 0; i < n; i++ {
		s := src[i*ss] & f.max
		p := t[0][s&15] ^ t[1][s>>4&15] ^ t[2][s>>8&15] ^ t[3][s>>12&15] ^
			t[4][s>>16&15] ^ t[5][s>>20&15] ^ t[6][s>>24&15] ^ t[7][s>>28&15] ^
			t[8][s>>32&15] ^ t[9][s>>36&15] ^ t[10][s>>40&15] ^ t[11][s>>44&15] ^
			t[12][s>>48&15] ^ t[13][s>>52&15] ^ t[14][s>>56&15] ^ t[15][s>>60]
		if acc {
			p ^= dst[i*ds]
		}
		dst[i*ds] = p
	}
}

// splitTable is GF-Complete's "SPLIT w 8" table for one fixed scalar a:
// t[k][b] = a * (b * x^(8k)) mod p, fully reduced. Any canonical element s
// is the XOR of its bytes b_k * x^(8k), so a*s is the XOR of eight
// lookups, with no carry-less product and no reduction.
type splitTable [8][256]Elem

// mul returns a*s for a canonical s.
func (t *splitTable) mul(s Elem) Elem {
	return t[0][byte(s)] ^ t[1][byte(s>>8)] ^ t[2][byte(s>>16)] ^ t[3][byte(s>>24)] ^
		t[4][byte(s>>32)] ^ t[5][byte(s>>40)] ^ t[6][byte(s>>48)] ^ t[7][byte(s>>56)]
}

// nibbleTable is splitTable with 4-bit pieces ("SPLIT w 4"): sixteen
// 16-entry tables, 2 KiB instead of 16 KiB, so it is cheap enough to build
// for a row of a few elements at the price of sixteen lookups per product
// instead of eight.
type nibbleTable [16][16]Elem

// fillSplit fills the split tables t of a, w-bit pieces for 2^w-entry
// tables: t[k][b] = a * (b * x^(w*k)) mod p. It takes m doublings a*x^j,
// j < m, plus one XOR per entry: within table k, entry b with top bit 2^i
// is a*x^(w*k+i) XOR the entry for b without that bit. Tables at or above
// ceil(m/w), and entries of the top table past the field's width, stay
// zero; a masked s never selects them with a nonzero piece. The doubling
// folds the carry in with a mask rather than a branch, which a random a
// mispredicts half the time.
func fillSplit[T [16]Elem | [256]Elem](f *Field, a Elem, t []T) {
	v, j := a, uint(0)
	for k := range t {
		row := &t[k]
		for bit := 1; bit < len(*row); bit <<= 1 {
			if j == f.m {
				return
			}
			(*row)[bit] = v
			for b := 1; b < bit; b++ {
				(*row)[bit|b] = v ^ (*row)[b]
			}
			v = v<<1&f.max ^ f.mod&-(v>>(f.m-1))
			j++
		}
	}
}

// window is the 4-bit carry-less multiplication table of one fixed scalar:
// entry v holds the unreduced polynomial product a*v, split into low and
// high words (degree can reach 63+3 = 66). Building it costs a handful of
// shifts and xors, after which each 64-bit product takes 16 table steps
// instead of up to 64 shift-reduce iterations.
type window struct {
	lo [16]uint64
	hi [16]uint64
}

func (w *window) init(a Elem) {
	w.lo[1] = a
	for v := 2; v < 16; v++ {
		if v&1 == 0 {
			h := v >> 1
			w.lo[v] = w.lo[h] << 1
			w.hi[v] = w.hi[h]<<1 | w.lo[h]>>63
		} else {
			w.lo[v] = w.lo[v^1] ^ a
			w.hi[v] = w.hi[v^1]
		}
	}
}

// mul returns the unreduced 128-bit carry-less product a*b for b < 2^m,
// one nibble of b per step. The step count depends on m alone: skipping
// zero nibbles or stopping at b's top nibble branches on the data, which
// mispredicts once b varies from call to call (a stripe column) and costs
// more than the lookups it saves.
func (w *window) mul(b Elem, m uint) (hi, lo uint64) {
	lo, hi = w.lo[b&15], w.hi[b&15]
	for k := uint(4); k < m; k += 4 {
		nib := b >> k & 15
		lo ^= w.lo[nib] << k
		hi ^= w.hi[nib]<<k | w.lo[nib]>>(64-k)
	}
	return hi, lo
}

// clMul64 is the one-shot carry-less product of a and b < 2^m, used by
// scalar Mul on table-less fields.
func clMul64(a, b uint64, m uint) (hi, lo uint64) {
	var w window
	w.init(a)
	return w.mul(b, m)
}

// reduceWide reduces a 128-bit polynomial value modulo x^m + mod. Each
// fold replaces the bits at degree >= m with their residue top*mod,
// iterating the (sparse) set bits of mod; the degree drops by at least
// m - deg(mod) per fold, so two or three folds suffice for every supported
// polynomial.
func (f *Field) reduceWide(hi, lo uint64) Elem {
	m := f.m
	for {
		var top uint64
		if m == 64 {
			top = hi
		} else {
			top = hi<<(64-m) | lo>>m
		}
		if top == 0 {
			return lo & f.max
		}
		lo &= f.max
		hi = 0
		for t := f.mod; t != 0; t &= t - 1 {
			i := uint(bits.TrailingZeros64(t))
			lo ^= top << i
			if i > 0 {
				hi ^= top >> (64 - i)
			}
		}
	}
}
