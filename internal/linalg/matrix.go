// Package linalg provides dense matrices over binary extension fields
// GF(2^m) supplied by internal/gf.
//
// It implements exactly what NAB's equality check needs: random coding
// matrices (Theorem 1), the coded-symbol product Y_e = X_i * C_e, rank by
// Gaussian elimination (the correctness verification of a coding scheme)
// and submatrices (the M_H cross-check of Appendix C.1).
package linalg

import (
	"fmt"
	"strings"

	"nab/internal/gf"
)

// Matrix is a dense rows x cols matrix over a fixed field. The zero value is
// not usable; construct with New or Random.
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

// MulVecInto computes the row-vector product x*m into dst, which must have
// length m.Cols(); dst is overwritten. This is the coded-symbol computation
// Y_e = X_i * C_e of the equality check, and it does not allocate.
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
	return m.Clone().eliminate()
}

// eliminate reduces m to row echelon form in place and returns its rank.
func (m *Matrix) eliminate() int {
	f := m.field
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
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
		// eliminate below: one AXPY row kernel per row
		pinv, _ := f.Inv(m.data[rank*m.cols+col])
		prow := m.data[rank*m.cols+col : (rank+1)*m.cols]
		for r := rank + 1; r < m.rows; r++ {
			factor := f.Mul(m.data[r*m.cols+col], pinv)
			if factor == 0 {
				continue
			}
			f.AXPY(factor, m.data[r*m.cols+col:(r+1)*m.cols], prow)
		}
		rank++
	}
	return rank
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
