package coding

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nab/internal/gf"
	"nab/internal/graph"
)

// fig1a is the reconstructed Figure 1(a): K4 minus the 2-4 edge, unit
// bidirectional capacities (see internal/graph tests for the derivation).
func fig1a() *graph.Directed {
	g := graph.NewDirected()
	for _, pair := range [][2]graph.NodeID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {3, 4}} {
		if err := g.AddBiEdge(pair[0], pair[1], 1); err != nil {
			panic(err)
		}
	}
	return g
}

// omega1 returns all (n-f)-node induced subgraphs of g — Omega_1 before any
// disputes exist.
func omega1(g *graph.Directed, f int) []*graph.Directed {
	nodes := g.Nodes()
	keep := len(nodes) - f
	var out []*graph.Directed
	var rec func(start int, cur []graph.NodeID)
	rec = func(start int, cur []graph.NodeID) {
		if len(cur) == keep {
			out = append(out, g.Induced(append([]graph.NodeID(nil), cur...)))
			return
		}
		for i := start; i < len(nodes); i++ {
			rec(i+1, append(cur, nodes[i]))
		}
	}
	rec(0, nil)
	return out
}

func TestNewSchemeShapes(t *testing.T) {
	g := fig1a()
	field := gf.MustNew(16)
	s, err := NewScheme(g, 2, field, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Rho() != 2 || s.Field() != field {
		t.Error("scheme accessors wrong")
	}
	for _, e := range g.Edges() {
		m := s.EdgeMatrix(e.From, e.To)
		if m == nil {
			t.Fatalf("missing matrix for %v", e)
		}
		if m.Rows() != 2 || int64(m.Cols()) != e.Cap {
			t.Fatalf("matrix for %v is %dx%d", e, m.Rows(), m.Cols())
		}
	}
	if s.EdgeMatrix(2, 4) != nil {
		t.Error("matrix for absent edge should be nil")
	}
}

func TestNewSchemeValidation(t *testing.T) {
	g := fig1a()
	if _, err := NewScheme(g, 0, gf.MustNew(8), rand.New(rand.NewSource(1))); err == nil {
		t.Error("rho=0: expected error")
	}
	if _, err := NewScheme(g, 1, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("nil field: expected error")
	}
}

func TestEncodeCheckRoundTrip(t *testing.T) {
	g := fig1a()
	field := gf.MustNew(16)
	rng := rand.New(rand.NewSource(2))
	s, err := NewScheme(g, 2, field, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := []gf.Elem{field.Rand(rng), field.Rand(rng)}
	y, err := s.Encode(1, 2, x)
	if err != nil {
		t.Fatal(err)
	}
	// Same value on both sides: no mismatch.
	mismatch, err := s.Check(1, 2, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mismatch {
		t.Error("identical values flagged MISMATCH")
	}
	// Corrupted symbols: mismatch.
	bad := append([]gf.Elem(nil), y...)
	bad[0] ^= 1
	mismatch, err = s.Check(1, 2, x, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !mismatch {
		t.Error("corrupted symbols not flagged")
	}
	// Truncated symbols: mismatch (missing message -> default).
	mismatch, err = s.Check(1, 2, x, y[:0])
	if err != nil {
		t.Fatal(err)
	}
	if !mismatch {
		t.Error("missing symbols not flagged")
	}
}

func TestEncodeErrors(t *testing.T) {
	g := fig1a()
	s, err := NewScheme(g, 2, gf.MustNew(8), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encode(2, 4, []gf.Elem{1, 2}); err == nil {
		t.Error("absent edge: expected error")
	}
	if _, err := s.Encode(1, 2, []gf.Elem{1}); err == nil {
		t.Error("short value: expected error")
	}
}

func TestAssembleCHDimensions(t *testing.T) {
	g := fig1a()
	s, err := NewScheme(g, 2, gf.MustNew(16), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// H = subgraph on {1,3,4}: edges 1<->3, 1<->4, 3<->4 (6 directed), total
	// capacity 6. Blocks: nodes 1 and 3 (ref = 4). Rows = 2*rho = 4.
	h := g.Induced([]graph.NodeID{1, 3, 4})
	ch, err := s.AssembleCH(h)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Rows() != 4 || ch.Cols() != 6 {
		t.Fatalf("C_H is %dx%d, want 4x6", ch.Rows(), ch.Cols())
	}
}

func TestAssembleCHErrors(t *testing.T) {
	g := fig1a()
	s, err := NewScheme(g, 1, gf.MustNew(8), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// Subgraph with an edge the scheme has no matrix for.
	h := graph.NewDirected()
	h.MustAddEdge(1, 2, 1)
	h.MustAddEdge(2, 4, 1) // not in fig1a
	if _, err := s.AssembleCH(h); err == nil {
		t.Error("missing matrix: expected error")
	}
	// Single node subgraph.
	single := graph.NewDirected()
	single.AddNode(1)
	if _, err := s.AssembleCH(single); err == nil {
		t.Error("tiny subgraph: expected error")
	}
}

func TestVerifyAndGenerateVerified(t *testing.T) {
	g := fig1a()
	omega := omega1(g, 1) // f=1: four 3-node subgraphs
	if len(omega) != 4 {
		t.Fatalf("omega has %d subgraphs, want 4", len(omega))
	}
	field := gf.MustNew(16)
	rng := rand.New(rand.NewSource(5))
	// U_1: min over H in Omega_1 of pairwise mincut. Subgraph {1,2,4} has
	// no 2-4 edge, undirected caps 2 => U = 2, rho = 1.
	s, tries, err := GenerateVerified(g, 1, field, omega, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tries < 1 {
		t.Errorf("tries = %d", tries)
	}
	bad, err := s.Verify(omega)
	if err != nil {
		t.Fatal(err)
	}
	if bad != -1 {
		t.Errorf("verified scheme fails on subgraph %d", bad)
	}
}

func TestGenerateVerifiedValidation(t *testing.T) {
	g := fig1a()
	if _, _, err := GenerateVerified(g, 1, gf.MustNew(8), nil, rand.New(rand.NewSource(1)), 0); err == nil {
		t.Error("maxTries=0: expected error")
	}
}

// TestEqualityCheckSoundness is the core EC property of the paper: if two
// fault-free nodes hold different values, some fault-free node detects a
// mismatch — equivalently, for the true fault-free subgraph H, if all
// pairwise checks inside H pass then all values in H are equal.
func TestEqualityCheckSoundness(t *testing.T) {
	g := fig1a()
	omega := omega1(g, 1)
	field := gf.MustNew(16)
	rng := rand.New(rand.NewSource(7))
	s, _, err := GenerateVerified(g, 1, field, omega, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range omega {
		nodes := h.Nodes()
		for trial := 0; trial < 50; trial++ {
			// Random values, sometimes identical, sometimes not.
			vals := map[graph.NodeID][]gf.Elem{}
			base := []gf.Elem{field.Rand(rng)}
			differ := false
			for _, v := range nodes {
				if rng.Intn(2) == 0 {
					vals[v] = append([]gf.Elem(nil), base...)
				} else {
					x := []gf.Elem{field.Rand(rng)}
					vals[v] = x
					if x[0] != base[0] {
						differ = true
					}
				}
			}
			// Honest exchange inside H: mismatch detected anywhere?
			detected := false
			for _, e := range h.Edges() {
				y, err := s.Encode(e.From, e.To, vals[e.From])
				if err != nil {
					t.Fatal(err)
				}
				mm, err := s.Check(e.From, e.To, vals[e.To], y)
				if err != nil {
					t.Fatal(err)
				}
				if mm {
					detected = true
				}
			}
			if differ && !detected {
				t.Fatalf("EC violated on %v: values %v differ but no mismatch", nodes, vals)
			}
			if !differ && detected {
				t.Fatalf("false positive on %v: identical values flagged", nodes)
			}
		}
	}
}

// TestSoundnessFailureRateSmallField verifies Theorem 1 quantitatively: with
// a tiny field the failure probability of a single random draw is visible
// and must not exceed the paper's bound by more than sampling noise.
func TestSoundnessFailureRateSmallField(t *testing.T) {
	g := fig1a()
	omega := omega1(g, 1)
	const symBits = 4
	field := gf.MustNew(symBits)
	rng := rand.New(rand.NewSource(11))
	const draws = 400
	failures := 0
	for i := 0; i < draws; i++ {
		s, err := NewScheme(g, 1, field, rng)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := s.Verify(omega)
		if err != nil {
			t.Fatal(err)
		}
		if bad >= 0 {
			failures++
		}
	}
	bound := Theorem1Bound(4, 1, 1, symBits)
	rate := float64(failures) / draws
	t.Logf("empirical failure rate %.4f, Theorem 1 bound %.4f", rate, bound)
	// Allow generous sampling slack (3 sigma of binomial at the bound).
	slack := 3 * 0.5 / 20 // ~0.075
	if rate > bound+slack {
		t.Errorf("failure rate %.4f exceeds bound %.4f + slack", rate, bound)
	}
}

func TestTheorem1Bound(t *testing.T) {
	// n=4, f=1, rho=1: C(4,3)*(3-1)*1 = 8; at m=4 bound = 8/16 = 0.5.
	if got := Theorem1Bound(4, 1, 1, 4); got != 0.5 {
		t.Errorf("bound = %v, want 0.5", got)
	}
	// Saturates at 1.
	if got := Theorem1Bound(10, 3, 4, 1); got != 1 {
		t.Errorf("bound = %v, want 1 (saturated)", got)
	}
	// Large m drives the bound toward 0.
	if got := Theorem1Bound(4, 1, 1, 60); got > 1e-15 {
		t.Errorf("bound = %v, want ~0", got)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{4, 3, 4}, {10, 5, 252}, {5, 0, 1}, {5, 5, 1}, {3, 7, 0}, {3, -1, 0}}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestPackUnpackValueRoundTrip(t *testing.T) {
	data := []byte("byzantine broadcast")
	symbols, err := PackValue(data, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	back := unpackValueRef(symbols, 8, len(data))
	if !bytes.Equal(data, back) {
		t.Errorf("round trip: %q != %q", back, data)
	}
}

func TestPackValueQuick(t *testing.T) {
	check := func(data []byte, rhoSeed uint8, bitsSeed uint8) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		symbolBits := uint(1 + bitsSeed%64)
		need := (uint64(len(data))*8 + uint64(symbolBits) - 1) / uint64(symbolBits)
		rho := int(need) + int(rhoSeed%4)
		if rho == 0 {
			rho = 1
		}
		symbols, err := PackValue(data, rho, symbolBits)
		if err != nil {
			return false
		}
		back := unpackValueRef(symbols, symbolBits, len(data))
		return bytes.Equal(data, back)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPackValueErrors(t *testing.T) {
	if _, err := PackValue([]byte{1}, 0, 8); err == nil {
		t.Error("rho=0: expected error")
	}
	if _, err := PackValue([]byte{1}, 1, 0); err == nil {
		t.Error("bits=0: expected error")
	}
	if _, err := PackValue([]byte{1, 2, 3}, 1, 8); err == nil {
		t.Error("overflow: expected error")
	}
}

func TestValuesEqual(t *testing.T) {
	if !ValuesEqual([]gf.Elem{1, 2}, []gf.Elem{1, 2}) {
		t.Error("equal slices reported unequal")
	}
	if ValuesEqual([]gf.Elem{1}, []gf.Elem{1, 2}) {
		t.Error("length mismatch reported equal")
	}
	if ValuesEqual([]gf.Elem{1, 3}, []gf.Elem{1, 2}) {
		t.Error("different slices reported equal")
	}
}

func BenchmarkGenerateVerified(b *testing.B) {
	g := fig1a()
	omega := omega1(g, 1)
	field := gf.MustNew(16)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GenerateVerified(g, 1, field, omega, rng, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	g := fig1a()
	field := gf.MustNew(32)
	rng := rand.New(rand.NewSource(1))
	s, err := NewScheme(g, 2, field, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := []gf.Elem{field.Rand(rng), field.Rand(rng)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(1, 2, x); err != nil {
			b.Fatal(err)
		}
	}
}
