// Package linalg provides dense matrix arithmetic over binary extension
// fields GF(2^m) supplied by internal/gf.
//
// It implements exactly what the NAB equality-check analysis needs: matrix
// products (coded-symbol generation Y_e = X_i * C_e), rank and invertibility
// via Gaussian elimination (correctness verification of coding matrices,
// Theorem 1), determinants, and random matrix generation.
package linalg

import (
	"fmt"
	"strings"

	"nab/internal/gf"
)

// Matrix is a dense rows x cols matrix over a fixed field. The zero value is
// not usable; construct with New, NewFromRows or Random.
type Matrix struct {
	field *gf.Field
	rows  int
	cols  int
	data  []gf.Elem // row-major
}

// New returns a zero rows x cols matrix over field f.
func New(f *gf.Field, rows, cols int) (*Matrix, error) {
	if f == nil {
		return nil, fmt.Errorf("linalg: nil field")
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: negative dimensions %dx%d", rows, cols)
	}
	return &Matrix{field: f, rows: rows, cols: cols, data: make([]gf.Elem, rows*cols)}, nil
}

// MustNew is New, panicking on error. For constant dimensions in tests.
func MustNew(f *gf.Field, rows, cols int) *Matrix {
	m, err := New(f, rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// NewFromRows builds a matrix from row slices, which must be rectangular and
// contain only canonical field elements.
func NewFromRows(f *gf.Field, rows [][]gf.Elem) (*Matrix, error) {
	if len(rows) == 0 {
		return New(f, 0, 0)
	}
	cols := len(rows[0])
	m, err := New(f, len(rows), cols)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), cols)
		}
		for j, v := range r {
			if !f.Valid(v) {
				return nil, fmt.Errorf("linalg: element %#x at (%d,%d) not in %v", v, i, j, f)
			}
			m.data[i*cols+j] = v
		}
	}
	return m, nil
}

// Random returns a rows x cols matrix with entries drawn independently and
// uniformly from the field, matching Theorem 1's random coding matrices.
func Random(f *gf.Field, rows, cols int, src interface{ Uint64() uint64 }) (*Matrix, error) {
	m, err := New(f, rows, cols)
	if err != nil {
		return nil, err
	}
	for i := range m.data {
		m.data[i] = f.Rand(src)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(f *gf.Field, n int) (*Matrix, error) {
	m, err := New(f, n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Field returns the field the matrix is defined over.
func (m *Matrix) Field() *gf.Field { return m.field }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) gf.Elem { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v gf.Elem) { m.data[i*m.cols+j] = v & m.field.Mask() }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{field: m.field, rows: m.rows, cols: m.cols, data: make([]gf.Elem, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Equal reports whether m and o have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m*o.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	out, err := New(m.field, m.rows, o.cols)
	if err != nil {
		return nil, err
	}
	if err := m.MulInto(o, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MulInto computes the matrix product m*o into out, which must be
// m.Rows() x o.Cols() over the same field; out is overwritten. out must not
// alias m or o. The inner loop is one AXPY row kernel per nonzero entry of
// m, so repeated products over a reused out matrix do not allocate.
func (m *Matrix) MulInto(o, out *Matrix) error {
	if m.cols != o.rows {
		return fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	if out.rows != m.rows || out.cols != o.cols || out.field != m.field {
		return fmt.Errorf("linalg: MulInto destination is %dx%d over %v, want %dx%d over %v",
			out.rows, out.cols, out.field, m.rows, o.cols, m.field)
	}
	f := m.field
	for i := range out.data {
		out.data[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		dst := out.data[i*o.cols : (i+1)*o.cols]
		for k := 0; k < m.cols; k++ {
			if a := m.data[i*m.cols+k]; a != 0 {
				f.AXPY(a, dst, o.data[k*o.cols:(k+1)*o.cols])
			}
		}
	}
	return nil
}

// Add returns the entrywise sum m+o (XOR in characteristic 2).
func (m *Matrix) Add(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d + %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] ^= o.data[i]
	}
	return out, nil
}

// MulVec returns the row-vector product x*m, where x has length m.Rows().
// This is the coded-symbol computation Y_e = X_i * C_e of the equality check.
func (m *Matrix) MulVec(x []gf.Elem) ([]gf.Elem, error) {
	out := make([]gf.Elem, m.cols)
	if err := m.MulVecInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes the row-vector product x*m into dst, which must have
// length m.Cols(); dst is overwritten. The allocation-free form of MulVec
// for callers that reuse a destination buffer.
func (m *Matrix) MulVecInto(x, dst []gf.Elem) error {
	if len(x) != m.rows {
		return fmt.Errorf("linalg: vector length %d, want %d", len(x), m.rows)
	}
	if len(dst) != m.cols {
		return fmt.Errorf("linalg: destination length %d, want %d", len(dst), m.cols)
	}
	f := m.field
	for j := range dst {
		dst[j] = 0
	}
	for i, a := range x {
		if a != 0 {
			f.AXPY(a, dst, m.data[i*m.cols:(i+1)*m.cols])
		}
	}
	return nil
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := &Matrix{field: m.field, rows: m.cols, cols: m.rows, data: make([]gf.Elem, len(m.data))}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// HConcat returns [m | o], the horizontal concatenation.
func (m *Matrix) HConcat(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows {
		return nil, fmt.Errorf("linalg: HConcat row mismatch %d vs %d", m.rows, o.rows)
	}
	out, err := New(m.field, m.rows, m.cols+o.cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.cols:], m.data[i*m.cols:(i+1)*m.cols])
		copy(out.data[i*out.cols+m.cols:], o.data[i*o.cols:(i+1)*o.cols])
	}
	return out, nil
}

// SubMatrix returns the matrix restricted to the given row and column
// indices (in the given order; duplicates allowed).
func (m *Matrix) SubMatrix(rowIdx, colIdx []int) (*Matrix, error) {
	out, err := New(m.field, len(rowIdx), len(colIdx))
	if err != nil {
		return nil, err
	}
	for _, r := range rowIdx {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("linalg: row index %d out of range [0,%d)", r, m.rows)
		}
	}
	for _, c := range colIdx {
		if c < 0 || c >= m.cols {
			return nil, fmt.Errorf("linalg: col index %d out of range [0,%d)", c, m.cols)
		}
	}
	for i, r := range rowIdx {
		for j, c := range colIdx {
			out.data[i*out.cols+j] = m.data[r*m.cols+c]
		}
	}
	return out, nil
}

// Rank returns the rank of m, computed by Gaussian elimination on a copy.
func (m *Matrix) Rank() int {
	w := m.Clone()
	rank, _ := w.eliminate(nil)
	return rank
}

// Invertible reports whether m is square and nonsingular.
func (m *Matrix) Invertible() bool {
	return m.rows == m.cols && m.Rank() == m.rows
}

// Det returns the determinant of a square matrix.
func (m *Matrix) Det() (gf.Elem, error) {
	if m.rows != m.cols {
		return 0, fmt.Errorf("linalg: determinant of non-square %dx%d matrix", m.rows, m.cols)
	}
	w := m.Clone()
	var det gf.Elem = 1
	rank, pivots := w.eliminate(&det)
	_ = pivots
	if rank < m.rows {
		return 0, nil
	}
	return det, nil
}

// Inverse returns m^-1 or an error if m is singular or non-square.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("linalg: inverse of non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	id, err := Identity(m.field, n)
	if err != nil {
		return nil, err
	}
	aug, err := m.HConcat(id)
	if err != nil {
		return nil, err
	}
	rank, pivots := aug.eliminateReduced()
	// The augmented matrix always reaches rank n via the identity block;
	// m itself is invertible only if every pivot lies in the left block.
	if rank < n || pivots[n-1] >= n {
		return nil, fmt.Errorf("linalg: matrix is singular")
	}
	inv, err := New(m.field, n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		copy(inv.data[i*n:(i+1)*n], aug.data[i*aug.cols+n:(i+1)*aug.cols])
	}
	return inv, nil
}

// Solve solves x*m = b for a row vector x given square invertible m, i.e.
// x = b * m^-1. Returned slice has length m.Rows().
func (m *Matrix) Solve(b []gf.Elem) ([]gf.Elem, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b)
}

// eliminate performs row echelon reduction in place and returns the rank and
// pivot column list. If det is non-nil it accumulates the determinant of the
// leading square part (valid only when the matrix is square and full rank;
// row swaps contribute a factor of 1 since -1 == 1 in characteristic 2).
func (m *Matrix) eliminate(det *gf.Elem) (int, []int) {
	f := m.field
	rank := 0
	pivots := make([]int, 0, minInt(m.rows, m.cols))
	for col := 0; col < m.cols && rank < m.rows; col++ {
		// find pivot
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if m.data[r*m.cols+col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.swapRows(pivot, rank)
		pv := m.data[rank*m.cols+col]
		if det != nil {
			*det = f.Mul(*det, pv)
		}
		// eliminate below: one AXPY row kernel per row
		pinv, _ := f.Inv(pv)
		prow := m.data[rank*m.cols+col : (rank+1)*m.cols]
		for r := rank + 1; r < m.rows; r++ {
			factor := f.Mul(m.data[r*m.cols+col], pinv)
			if factor == 0 {
				continue
			}
			f.AXPY(factor, m.data[r*m.cols+col:(r+1)*m.cols], prow)
		}
		pivots = append(pivots, col)
		rank++
	}
	return rank, pivots
}

// eliminateReduced performs full Gauss-Jordan reduction (reduced row echelon
// form) in place and returns the rank and pivot columns.
func (m *Matrix) eliminateReduced() (int, []int) {
	f := m.field
	rank, pivots := m.eliminate(nil)
	// normalize pivots to 1 and clear above
	for idx := len(pivots) - 1; idx >= 0; idx-- {
		row, col := idx, pivots[idx]
		pinv, _ := f.Inv(m.data[row*m.cols+col])
		prow := m.data[row*m.cols+col : (row+1)*m.cols]
		f.MulSlice(pinv, prow, prow)
		for r := 0; r < row; r++ {
			factor := m.data[r*m.cols+col]
			if factor == 0 {
				continue
			}
			f.AXPY(factor, m.data[r*m.cols+col:(r+1)*m.cols], prow)
		}
	}
	return rank, pivots
}

func (m *Matrix) swapRows(a, b int) {
	if a == b {
		return
	}
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d over %v\n", m.rows, m.cols, m.field)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%x", m.data[i*m.cols+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
