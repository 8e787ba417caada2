package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nab/internal/gf"
)

var testField = gf.MustNew(8)

func randomMatrix(t *testing.T, f *gf.Field, rows, cols int, seed int64) *Matrix {
	t.Helper()
	m, err := Random(f, rows, cols, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Random(%d,%d): %v", rows, cols, err)
	}
	return m
}

// fromRows builds a matrix from literal rows.
func fromRows(t *testing.T, f *gf.Field, rows [][]gf.Elem) *Matrix {
	t.Helper()
	m, err := New(f, len(rows), len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// mulRef is the schoolbook product a*b, one Field.Mul per term: the
// reference the AXPY row kernels are checked against.
func mulRef(a, b *Matrix) *Matrix {
	f := a.field
	out := &Matrix{field: f, rows: a.rows, cols: b.cols, data: make([]gf.Elem, a.rows*b.cols)}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s gf.Elem
			for k := 0; k < a.cols; k++ {
				s = f.Add(s, f.Mul(a.At(i, k), b.At(k, j)))
			}
			out.data[i*out.cols+j] = s
		}
	}
	return out
}

func transposeRef(m *Matrix) *Matrix {
	t := &Matrix{field: m.field, rows: m.cols, cols: m.rows, data: make([]gf.Elem, len(m.data))}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.At(i, j)
		}
	}
	return t
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 2, 2); err == nil {
		t.Error("New(nil field): expected error")
	}
	if _, err := New(testField, -1, 2); err == nil {
		t.Error("New(-1 rows): expected error")
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	m := randomMatrix(t, testField, 2, 3, 1)
	if err := m.MulVecInto(make([]gf.Elem, 3), make([]gf.Elem, 3)); err == nil {
		t.Error("length-3 vector * 2x3: expected dimension error")
	}
	if err := m.MulVecInto(make([]gf.Elem, 2), make([]gf.Elem, 2)); err == nil {
		t.Error("2x3 product into length-2 destination: expected dimension error")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := gf.MustNew(10)
	rng := rand.New(rand.NewSource(5))
	m, _ := Random(f, 4, 6, rng)
	x := make([]gf.Elem, 4)
	for i := range x {
		x[i] = f.Rand(rng)
	}
	got := make([]gf.Elem, 6)
	if err := m.MulVecInto(x, got); err != nil {
		t.Fatal(err)
	}
	// compare with the 1x4 matrix product
	want := mulRef(fromRows(t, f, [][]gf.Elem{x}), m)
	for j := 0; j < 6; j++ {
		if got[j] != want.At(0, j) {
			t.Fatalf("MulVecInto mismatch at col %d: %d vs %d", j, got[j], want.At(0, j))
		}
	}
}

func TestRankProperties(t *testing.T) {
	f := gf.MustNew(8)
	// zero matrix has rank 0
	z, _ := New(f, 3, 5)
	if z.Rank() != 0 {
		t.Errorf("zero matrix rank = %d", z.Rank())
	}
	// identity has full rank
	id, _ := New(f, 4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if id.Rank() != 4 {
		t.Errorf("identity rank = %d", id.Rank())
	}
	// duplicated row drops rank
	m := fromRows(t, f, [][]gf.Elem{{1, 2, 3}, {1, 2, 3}, {0, 1, 0}})
	if m.Rank() != 2 {
		t.Errorf("duplicated-row matrix rank = %d, want 2", m.Rank())
	}
	// rank <= min(rows, cols)
	r := randomMatrix(t, f, 3, 7, 9)
	if r.Rank() > 3 {
		t.Errorf("rank %d > rows 3", r.Rank())
	}
	// Over random degrees and shapes, a row that is a combination of two
	// others adds nothing.
	rng := rand.New(rand.NewSource(7))
	degrees := []uint{2, 8, 16, 64}
	for i := 0; i < 60; i++ {
		f := gf.MustNew(degrees[rng.Intn(len(degrees))])
		rows, cols := 2+rng.Intn(5), 1+rng.Intn(6)
		a, _ := Random(f, rows, cols, rng)
		c := f.Rand(rng)
		for j := 0; j < cols; j++ {
			a.Set(rows-1, j, f.Add(f.Mul(c, a.At(0, j)), a.At(1%(rows-1), j)))
		}
		sub, _ := a.SubMatrix(seq(rows-1), seq(cols))
		if got, want := a.Rank(), sub.Rank(); got != want {
			t.Fatalf("%v %dx%d: dependent row raised rank %d -> %d", f, rows, cols, want, got)
		}
	}
}

// TestInverseSingular checks the invertibility test the coding layer
// uses, Rank() == Rows(), on square matrices that have no inverse: a
// repeated row, a zero column, and a random draw with one row replaced
// by a combination of the others.
func TestInverseSingular(t *testing.T) {
	f := gf.MustNew(8)
	if s := fromRows(t, f, [][]gf.Elem{{1, 2}, {1, 2}}); s.Rank() == s.Rows() {
		t.Error("singular 2x2 reported full rank")
	}
	if s := fromRows(t, f, [][]gf.Elem{{1, 0, 3}, {4, 0, 6}, {7, 0, 9}}); s.Rank() == s.Rows() {
		t.Error("3x3 with a zero column reported full rank")
	}
	rng := rand.New(rand.NewSource(3))
	for n := 3; n <= 6; n++ {
		m, _ := Random(f, n, n, rng)
		c := f.Rand(rng)
		for j := 0; j < n; j++ {
			m.Set(n-1, j, f.Add(m.At(0, j), f.Mul(c, m.At(1, j))))
		}
		if m.Rank() == m.Rows() {
			t.Fatalf("%dx%d with a dependent row reported full rank", n, n)
		}
	}
}

// TestMatrixRingIdentitiesProperty checks, over random degrees and
// shapes, the identities the coded-symbol product rests on: the vector
// product is linear, (x+y)A == xA + yA and (cx)A == c(xA); it agrees
// with the transposed product, xA == A^T x; and rank is invariant under
// transpose and bounded by the smaller dimension.
func TestMatrixRingIdentitiesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	degrees := []uint{2, 8, 16, 64}
	for i := 0; i < 60; i++ {
		f := gf.MustNew(degrees[rng.Intn(len(degrees))])
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		a, _ := Random(f, rows, cols, rng)
		x, y, sum := make([]gf.Elem, rows), make([]gf.Elem, rows), make([]gf.Elem, rows)
		c := f.Rand(rng)
		for k := range x {
			x[k], y[k] = f.Rand(rng), f.Rand(rng)
			sum[k] = f.Add(x[k], y[k])
		}
		scaled := make([]gf.Elem, rows)
		for k := range x {
			scaled[k] = f.Mul(c, x[k])
		}
		xa, ya, sa, ca := make([]gf.Elem, cols), make([]gf.Elem, cols), make([]gf.Elem, cols), make([]gf.Elem, cols)
		for _, p := range []struct{ in, out []gf.Elem }{{x, xa}, {y, ya}, {sum, sa}, {scaled, ca}} {
			if err := a.MulVecInto(p.in, p.out); err != nil {
				t.Fatal(err)
			}
		}
		at := transposeRef(a)
		for j := 0; j < cols; j++ {
			if sa[j] != f.Add(xa[j], ya[j]) {
				t.Fatalf("%v %dx%d: (x+y)A != xA + yA at %d", f, rows, cols, j)
			}
			if ca[j] != f.Mul(c, xa[j]) {
				t.Fatalf("%v %dx%d: (cx)A != c(xA) at %d", f, rows, cols, j)
			}
			var dot gf.Elem
			for k := 0; k < rows; k++ {
				dot = f.Add(dot, f.Mul(at.At(j, k), x[k]))
			}
			if xa[j] != dot {
				t.Fatalf("%v %dx%d: xA != A^T x at %d", f, rows, cols, j)
			}
		}
		if rank, tr := a.Rank(), at.Rank(); rank != tr || rank > min(rows, cols) {
			t.Fatalf("%v %dx%d: rank=%d, rank^T=%d", f, rows, cols, rank, tr)
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRankMulUpperBoundQuick(t *testing.T) {
	f := gf.MustNew(8)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := Random(f, 4, 3, rng)
		b, _ := Random(f, 3, 5, rng)
		r := mulRef(a, b).Rank()
		return r <= a.Rank() && r <= b.Rank()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSubMatrix(t *testing.T) {
	c := fromRows(t, testField, [][]gf.Elem{{1, 2, 5}, {3, 4, 6}})
	sub, err := c.SubMatrix([]int{1}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.At(0, 0) != 3 || sub.At(0, 1) != 6 {
		t.Errorf("SubMatrix wrong: %v", sub)
	}
	if _, err := c.SubMatrix([]int{5}, nil); err == nil {
		t.Error("out-of-range row: expected error")
	}
	if _, err := c.SubMatrix(nil, []int{9}); err == nil {
		t.Error("out-of-range col: expected error")
	}
}

func TestRandomFullRankProbability(t *testing.T) {
	// Over GF(2^16), random 4x4 matrices are invertible with probability
	// ~ prod(1 - 2^-16..) > 0.9999; seeing many singular draws would
	// indicate biased generation.
	f := gf.MustNew(16)
	rng := rand.New(rand.NewSource(99))
	singular := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		m, _ := Random(f, 4, 4, rng)
		if m.Rank() != 4 {
			singular++
		}
	}
	if singular > 2 {
		t.Errorf("%d/%d random matrices singular; generation looks biased", singular, trials)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := randomMatrix(t, testField, 2, 2, 8)
	c := m.Clone()
	c.Set(0, 0, m.At(0, 0)^1)
	if m.At(0, 0) == c.At(0, 0) {
		t.Error("Clone shares storage with original")
	}
}

func TestStringNonEmpty(t *testing.T) {
	if randomMatrix(t, testField, 2, 2, 1).String() == "" {
		t.Error("String() empty")
	}
}

// BenchmarkRank times one Rank at the C_H shapes the plans verify, all
// over GF(2^64): K7 with f = 2 before any dispute (rho = 8) and after one
// node is excluded (rho = 4), and thin7 with f = 1 (rho = 33; four of its
// seven H have 226 columns, the others 240).
func BenchmarkRank(b *testing.B) {
	f := gf.MustNew(64)
	for _, bc := range []struct {
		name       string
		rows, cols int
	}{
		{"K7_f2/32x40", 32, 40},
		{"K7_f2_excluded/16x20", 16, 20},
		{"thin7_f1/165x226", 165, 226},
	} {
		m, _ := Random(f, bc.rows, bc.cols, rand.New(rand.NewSource(1)))
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if m.Rank() != bc.rows {
					b.Fatal("rank-deficient random matrix")
				}
			}
		})
	}
}

// powRef is a^e by square-and-multiply on scalar Mul.
func powRef(f *gf.Field, a gf.Elem, e uint64) gf.Elem {
	r := gf.Elem(1)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = f.Mul(r, a)
		}
		a = f.Mul(a, a)
	}
	return r
}

// rankRef is the elimination oracle for FuzzRank: Gaussian elimination on
// a copy with one scalar Mul per entry and pivot inverses by Fermat,
// a^(2^m-2) = a^-1, instead of Inv and the row kernels.
func rankRef(m *Matrix) int {
	f, a := m.field, m.Clone()
	rank := 0
	for col := 0; col < a.cols && rank < a.rows; col++ {
		pivot := -1
		for r := rank; r < a.rows && pivot < 0; r++ {
			if a.At(r, col) != 0 {
				pivot = r
			}
		}
		if pivot < 0 {
			continue
		}
		a.swapRows(pivot, rank)
		pinv := powRef(f, a.At(rank, col), f.Mask()-1)
		for r := rank + 1; r < a.rows; r++ {
			factor := f.Mul(a.At(r, col), pinv)
			for j := col; j < a.cols; j++ {
				a.Set(r, j, f.Add(a.At(r, j), f.Mul(factor, a.At(rank, j))))
			}
		}
		rank++
	}
	return rank
}

// FuzzRank cross-checks Rank against rankRef on a fuzzer-chosen degree,
// shape and seed, with the last dep rows replaced by random combinations
// of the others so that the rank is at most rows - dep. Columns reach 600,
// past every row-kernel route cutover in gf.
func FuzzRank(f *testing.F) {
	f.Add(uint8(64), uint8(16), uint16(20), int64(1), uint8(0))
	f.Add(uint8(64), uint8(12), uint16(40), int64(2), uint8(3))
	f.Add(uint8(2), uint8(9), uint16(7), int64(3), uint8(2))
	f.Add(uint8(33), uint8(3), uint16(600), int64(4), uint8(1))
	f.Fuzz(func(t *testing.T, deg, rows uint8, cols uint16, seed int64, dep uint8) {
		fld := gf.MustNew(1 + uint(deg)%64)
		r, c := 1+int(rows)%24, 1+int(cols)%600
		d := int(dep) % r
		rng := rand.New(rand.NewSource(seed))
		m, err := Random(fld, r, c, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := r - d; i < r; i++ {
			for j := 0; j < c; j++ {
				m.Set(i, j, 0)
			}
			for k := 0; k < r-d; k++ {
				coef := fld.Rand(rng)
				for j := 0; j < c; j++ {
					m.Set(i, j, fld.Add(m.At(i, j), fld.Mul(coef, m.At(k, j))))
				}
			}
		}
		got, want := m.Rank(), rankRef(m)
		if got != want || got > r-d {
			t.Fatalf("%v %dx%d with %d dependent rows: Rank = %d, reference %d", fld, r, c, d, got, want)
		}
	})
}
