// Package coding implements the local linear coding used by NAB's equality
// check (Algorithm 1 of the paper) and the machinery of Theorem 1's
// soundness proof.
//
// A Scheme fixes, for each directed edge e of capacity z_e in the instance
// graph G_k, a rho x z_e coding matrix C_e over GF(2^m) (m = L/rho). During
// the equality check each node i sends Y_e = X_i * C_e on every outgoing
// edge and verifies Y_d = X_i * C_d for every incoming edge d.
//
// The paper specifies correct matrices as part of the algorithm, proving
// existence by the probabilistic method (Theorem 1). We mirror that: draw
// matrices at random and *verify* correctness deterministically — full row
// rank of the assembled C_H matrix for every potential fault-free subgraph
// H in Omega_k — redrawing until verification passes.
package coding

import (
	"fmt"
	"math"
	"sync"

	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/linalg"
)

// EdgeKey identifies a directed edge.
type EdgeKey [2]graph.NodeID

// Scheme holds the per-edge coding matrices for one instance graph.
type Scheme struct {
	field  *gf.Field
	rho    int
	mats   map[EdgeKey]*linalg.Matrix
	maxCap int // widest edge matrix

	// scratch pools the expected-symbol buffers of CheckStripes (stripes x
	// z_e symbols) so the steady-state equality check, on every incoming
	// edge of every instance, allocates nothing. A buffer grows to the
	// largest check it has served and never escapes a call.
	scratch sync.Pool
}

// NewScheme draws a fresh random scheme for graph g with parameter rho over
// field: each C_e is rho x cap(e) with i.i.d. uniform entries (Theorem 1's
// distribution).
func NewScheme(g *graph.Directed, rho int, field *gf.Field, src interface{ Uint64() uint64 }) (*Scheme, error) {
	if rho <= 0 {
		return nil, fmt.Errorf("coding: rho = %d must be positive", rho)
	}
	if field == nil {
		return nil, fmt.Errorf("coding: nil field")
	}
	s := &Scheme{field: field, rho: rho, mats: map[EdgeKey]*linalg.Matrix{}}
	for _, e := range g.Edges() {
		m, err := linalg.Random(field, rho, int(e.Cap), src)
		if err != nil {
			return nil, fmt.Errorf("coding: edge (%d,%d): %w", e.From, e.To, err)
		}
		s.mats[EdgeKey{e.From, e.To}] = m
		if int(e.Cap) > s.maxCap {
			s.maxCap = int(e.Cap)
		}
	}
	s.scratch.New = func() any { return new([]gf.Elem) }
	return s, nil
}

// Rho returns the equality-check parameter rho (symbols per value).
func (s *Scheme) Rho() int { return s.rho }

// Field returns the symbol field GF(2^m).
func (s *Scheme) Field() *gf.Field { return s.field }

// EdgeMatrix returns C_e for edge (from, to), or nil if the scheme has no
// matrix for it.
func (s *Scheme) EdgeMatrix(from, to graph.NodeID) *linalg.Matrix {
	return s.mats[EdgeKey{from, to}]
}

// MaxCap returns the widest edge capacity z_e of the scheme — the largest
// symbol count a one-stripe Encode can produce, which sizes reusable
// CheckInto scratch buffers.
func (s *Scheme) MaxCap() int { return s.maxCap }

// EncodeStripes computes the coded symbols a node sends on edge (from, to)
// for a striped value. x holds one or more stripes of rho symbols (stripe
// r is x[r*rho:(r+1)*rho]), and dst, which must hold stripes*z_e symbols,
// is overwritten with Y_r = X_r * C_e at dst[r*z_e:(r+1)*z_e]. C_e is
// looked up once, and each matrix entry (i, j) is one kernel pass over
// every stripe.
//
// Stripes realize the paper's single vector of rho symbols over
// GF(2^(L/rho)) as several words over a machine-sized field: any stripe
// that differs between two values fails the check, so soundness holds
// while the cost per bit stays that of L/rho-bit symbols.
//
//nab:allocfree
func (s *Scheme) EncodeStripes(from, to graph.NodeID, x, dst []gf.Elem) error {
	c, stripes, err := s.stripes(from, to, x)
	if err != nil {
		return err
	}
	if len(dst) != stripes*c.Cols() {
		return fmt.Errorf("coding: destination of %d symbols, edge (%d,%d) needs %d", len(dst), from, to, stripes*c.Cols())
	}
	s.encode(c, x, dst, stripes)
	return nil
}

// CheckStripes performs the receiver-side comparison of Algorithm 1 step 2
// for a striped value: node i holding x checks the symbols y received on
// incoming edge (from, to=i) against EncodeStripes' output. It reports
// mismatch = true when any stripe differs or y has the wrong length (a
// missing or truncated message reads as the model's default value, which
// fails the check). The expected symbols go to a pooled buffer, so
// steady-state calls allocate nothing.
//
//nab:allocfree
func (s *Scheme) CheckStripes(from, to graph.NodeID, x, y []gf.Elem) (bool, error) {
	c, stripes, err := s.stripes(from, to, x)
	if err != nil {
		return false, err
	}
	bp := s.scratchFor(stripes * c.Cols())
	mismatch := s.check(c, x, y, *bp, stripes)
	s.scratch.Put(bp)
	return mismatch, nil
}

// Encode computes the coded symbols Y_e = X * C_e a node sends on edge
// (from, to): EncodeStripes on a fresh slice, for a value of exactly one
// stripe (rho symbols).
func (s *Scheme) Encode(from, to graph.NodeID, x []gf.Elem) ([]gf.Elem, error) {
	if err := s.oneStripe(x); err != nil {
		return nil, err
	}
	c, _, err := s.stripes(from, to, x)
	if err != nil {
		return nil, err
	}
	dst := make([]gf.Elem, c.Cols())
	s.encode(c, x, dst, 1)
	return dst, nil
}

// EncodeInto is EncodeStripes for a value of exactly one stripe: dst must
// hold the edge's z_e symbols and is overwritten.
//
//nab:allocfree
func (s *Scheme) EncodeInto(from, to graph.NodeID, x, dst []gf.Elem) error {
	if err := s.oneStripe(x); err != nil {
		return err
	}
	return s.EncodeStripes(from, to, x, dst)
}

// Check is CheckStripes for a value of exactly one stripe.
func (s *Scheme) Check(from, to graph.NodeID, x []gf.Elem, y []gf.Elem) (bool, error) {
	if err := s.oneStripe(x); err != nil {
		return false, err
	}
	return s.CheckStripes(from, to, x, y)
}

// CheckInto is Check computing the expected symbols into the caller's
// scratch buffer, which must hold at least the edge's z_e symbols (MaxCap
// suffices for every edge) and is clobbered.
//
//nab:allocfree
func (s *Scheme) CheckInto(from, to graph.NodeID, x, y, scratch []gf.Elem) (bool, error) {
	if err := s.oneStripe(x); err != nil {
		return false, err
	}
	c, _, err := s.stripes(from, to, x)
	if err != nil {
		return false, err
	}
	if len(scratch) < c.Cols() {
		return false, fmt.Errorf("coding: scratch of %d symbols, edge (%d,%d) needs %d", len(scratch), from, to, c.Cols())
	}
	return s.check(c, x, y, scratch, 1), nil
}

// stripes returns C_e for edge (from, to) and the number of rho-symbol
// stripes in x, which must be a positive whole number.
func (s *Scheme) stripes(from, to graph.NodeID, x []gf.Elem) (*linalg.Matrix, int, error) {
	c := s.mats[EdgeKey{from, to}]
	if c == nil {
		return nil, 0, fmt.Errorf("coding: no matrix for edge (%d,%d)", from, to)
	}
	if len(x) == 0 || len(x)%s.rho != 0 {
		return nil, 0, fmt.Errorf("coding: value has %d symbols, want a positive multiple of rho = %d", len(x), s.rho)
	}
	return c, len(x) / s.rho, nil
}

// oneStripe checks that x is exactly one stripe, for the one-stripe entry
// points.
func (s *Scheme) oneStripe(x []gf.Elem) error {
	if len(x) != s.rho {
		return fmt.Errorf("coding: value has %d symbols, want rho = %d", len(x), s.rho)
	}
	return nil
}

// check reports whether y differs from x * C, computing the expected
// symbols into scratch, which must hold at least stripes*z_e symbols.
//
//nab:allocfree
func (s *Scheme) check(c *linalg.Matrix, x, y, scratch []gf.Elem, stripes int) bool {
	n := stripes * c.Cols()
	if len(y) != n {
		return true
	}
	want := scratch[:n]
	s.encode(c, x, want, stripes)
	return !ValuesEqual(want, y)
}

// encode overwrites dst with x * C stripe by stripe: column j of the
// stripes x z_e output accumulates C[i][j] times column i of the stripes x
// rho input, one strided kernel pass per entry.
//
//nab:allocfree
func (s *Scheme) encode(c *linalg.Matrix, x, dst []gf.Elem, stripes int) {
	clear(dst)
	z := c.Cols()
	for i := 0; i < s.rho; i++ {
		for j := 0; j < z; j++ {
			s.field.AXPYStride(c.At(i, j), dst[j:], z, x[i:], s.rho, stripes)
		}
	}
}

// scratchFor returns a pooled buffer with room for n symbols; the caller
// puts it back.
func (s *Scheme) scratchFor(n int) *[]gf.Elem {
	bp := s.scratch.Get().(*[]gf.Elem)
	if cap(*bp) < n {
		*bp = make([]gf.Elem, n)
	}
	return bp
}

// blockIndex maps the nodes of subgraph H to row-block positions for the
// expanded matrices: nodes sorted ascending; the last (reference) node has
// no block. Returns the ordering, block index map, and reference node.
func blockIndex(h *graph.Directed) ([]graph.NodeID, map[graph.NodeID]int, graph.NodeID) {
	nodes := h.Nodes()
	ref := nodes[len(nodes)-1]
	blocks := map[graph.NodeID]int{}
	for i, v := range nodes[:len(nodes)-1] {
		blocks[v] = i
	}
	return nodes, blocks, ref
}

// AssembleCH builds the (|H|-1)*rho x m matrix C_H of Appendix C.1 for
// subgraph H: the horizontal concatenation of the expanded matrices B_e of
// every edge of H, where B_e places C_e in the tail node's block and -C_e
// (= C_e in characteristic 2) in the head node's block, the reference node
// contributing no block. Column order follows h.Edges() with slot order
// inside each edge.
func (s *Scheme) AssembleCH(h *graph.Directed) (*linalg.Matrix, error) {
	_, blocks, ref := blockIndex(h)
	nBlocks := len(blocks)
	if nBlocks == 0 {
		return nil, fmt.Errorf("coding: subgraph has fewer than 2 nodes")
	}
	totalCols := int(h.TotalCapacity())
	ch, err := linalg.New(s.field, nBlocks*s.rho, totalCols)
	if err != nil {
		return nil, err
	}
	col := 0
	for _, e := range h.Edges() {
		ce := s.EdgeMatrix(e.From, e.To)
		if ce == nil {
			return nil, fmt.Errorf("coding: missing matrix for subgraph edge (%d,%d)", e.From, e.To)
		}
		if int64(ce.Cols()) != e.Cap {
			return nil, fmt.Errorf("coding: matrix for (%d,%d) has %d cols, capacity %d", e.From, e.To, ce.Cols(), e.Cap)
		}
		for c := 0; c < int(e.Cap); c++ {
			if e.From != ref {
				bi := blocks[e.From]
				for r := 0; r < s.rho; r++ {
					ch.Set(bi*s.rho+r, col, ce.At(r, c))
				}
			}
			if e.To != ref {
				bi := blocks[e.To]
				for r := 0; r < s.rho; r++ {
					// -C_e equals C_e in characteristic 2.
					ch.Set(bi*s.rho+r, col, ce.At(r, c))
				}
			}
			col++
		}
	}
	return ch, nil
}

// VerifySubgraph reports whether the equality check is sound on subgraph H
// under this scheme: C_H must have full row rank (|H|-1)*rho, which is
// exactly the condition "D_H C_H = 0 implies D_H = 0" of the Theorem 1
// proof.
func (s *Scheme) VerifySubgraph(h *graph.Directed) (bool, error) {
	ch, err := s.AssembleCH(h)
	if err != nil {
		return false, err
	}
	return ch.Rank() == ch.Rows(), nil
}

// Verify checks soundness on every subgraph in omega (the Omega_k family:
// all candidate fault-free node sets). It returns the first failing
// subgraph index, or -1 if all pass.
func (s *Scheme) Verify(omega []*graph.Directed) (int, error) {
	for i, h := range omega {
		ok, err := s.VerifySubgraph(h)
		if err != nil {
			return i, fmt.Errorf("coding: verifying subgraph %d: %w", i, err)
		}
		if !ok {
			return i, nil
		}
	}
	return -1, nil
}

// GenerateVerified draws schemes until one passes Verify, up to maxTries.
// It returns the scheme and the number of draws used. By Theorem 1 a single
// draw succeeds with probability at least 1 - 2^-m * |Omega|(n-f-1)rho, so
// for reasonable field sizes tries == 1 almost always.
func GenerateVerified(g *graph.Directed, rho int, field *gf.Field, omega []*graph.Directed, src interface{ Uint64() uint64 }, maxTries int) (*Scheme, int, error) {
	if maxTries <= 0 {
		return nil, 0, fmt.Errorf("coding: maxTries = %d must be positive", maxTries)
	}
	for try := 1; try <= maxTries; try++ {
		s, err := NewScheme(g, rho, field, src)
		if err != nil {
			return nil, try, err
		}
		bad, err := s.Verify(omega)
		if err != nil {
			return nil, try, err
		}
		if bad < 0 {
			return s, try, nil
		}
	}
	return nil, maxTries, fmt.Errorf("coding: no correct scheme found in %d draws (field too small for this graph?)", maxTries)
}

// Theorem1Bound returns the paper's upper bound on the probability that a
// single random draw of coding matrices is NOT correct:
//
//	2^(-m) * C(n, n-f) * (n-f-1) * rho
//
// where m is the symbol width L/rho. Values above 1 are truncated to 1
// (the bound is vacuous there).
func Theorem1Bound(n, f, rho int, symbolBits uint) float64 {
	b := binomial(n, n-f) * float64(n-f-1) * float64(rho) * math.Pow(2, -float64(symbolBits))
	if b > 1 {
		return 1
	}
	return b
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out *= float64(n-i) / float64(i+1)
	}
	return out
}
