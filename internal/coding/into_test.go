package coding

import (
	"math/rand"
	"testing"

	"nab/internal/gf"
	"nab/internal/graph"
)

// schemeForInto draws a verified scheme on Figure 1(a) for the Into tests.
func schemeForInto(t testing.TB, deg uint) (*Scheme, *graph.Directed) {
	t.Helper()
	g := fig1a()
	field := gf.MustNew(deg)
	s, _, err := GenerateVerified(g, 2, field, omega1(g, 1), rand.New(rand.NewSource(2012)), 16)
	if err != nil {
		t.Fatalf("GenerateVerified: %v", err)
	}
	return s, g
}

// TestEncodeIntoMatchesEncode checks the in-place encode against the
// allocating form on every edge, and its error cases.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	s, g := schemeForInto(t, 16)
	rng := rand.New(rand.NewSource(5))
	x := []gf.Elem{s.Field().Rand(rng), s.Field().Rand(rng)}
	for _, e := range g.Edges() {
		want, err := s.Encode(e.From, e.To, x)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]gf.Elem, len(want))
		for i := range dst {
			dst[i] = ^gf.Elem(0)
		}
		if err := s.EncodeInto(e.From, e.To, x, dst); err != nil {
			t.Fatalf("EncodeInto(%d,%d): %v", e.From, e.To, err)
		}
		if !ValuesEqual(dst, want) {
			t.Fatalf("EncodeInto(%d,%d) != Encode", e.From, e.To)
		}
	}
	if err := s.EncodeInto(1, 99, x, nil); err == nil {
		t.Error("EncodeInto on missing edge: expected error")
	}
	if err := s.EncodeInto(1, 2, x[:1], make([]gf.Elem, 1)); err == nil {
		t.Error("EncodeInto with short value: expected error")
	}
}

// TestCheckIntoMatchesCheck checks the scratch form against Check for both
// verdicts, plus the scratch-size guard.
func TestCheckIntoMatchesCheck(t *testing.T) {
	s, g := schemeForInto(t, 16)
	rng := rand.New(rand.NewSource(6))
	x := []gf.Elem{s.Field().Rand(rng), s.Field().Rand(rng)}
	scratch := make([]gf.Elem, s.MaxCap())
	for _, e := range g.Edges() {
		y, err := s.Encode(e.From, e.To, x)
		if err != nil {
			t.Fatal(err)
		}
		for _, corrupt := range []bool{false, true} {
			probe := append([]gf.Elem(nil), y...)
			if corrupt {
				probe[0] ^= 1
			}
			want, err := s.Check(e.From, e.To, x, probe)
			if err != nil {
				t.Fatal(err)
			}
			if want != corrupt {
				t.Fatalf("Check(%d,%d) corrupt=%v: mismatch=%v", e.From, e.To, corrupt, want)
			}
			got, err := s.CheckInto(e.From, e.To, x, probe, scratch)
			if err != nil {
				t.Fatalf("CheckInto(%d,%d): %v", e.From, e.To, err)
			}
			if got != want {
				t.Fatalf("CheckInto(%d,%d) = %v, Check = %v", e.From, e.To, got, want)
			}
		}
	}
	if _, err := s.CheckInto(1, 2, x, nil, make([]gf.Elem, 0)); err == nil {
		t.Error("CheckInto with short scratch: expected error")
	}
}

// TestEncodeCheckZeroAlloc pins the steady-state coding hot path — the
// per-edge encode and the receiver-side check of every instance, one
// stripe and striped — at zero allocations per operation.
func TestEncodeCheckZeroAlloc(t *testing.T) {
	for _, deg := range []uint{16, 64} {
		s, g := schemeForInto(t, deg)
		rng := rand.New(rand.NewSource(9))
		x := []gf.Elem{s.Field().Rand(rng), s.Field().Rand(rng)}
		e := g.Edges()[0]
		dst := make([]gf.Elem, s.EdgeMatrix(e.From, e.To).Cols())
		if err := s.EncodeInto(e.From, e.To, x, dst); err != nil {
			t.Fatal(err)
		}
		y := append([]gf.Elem(nil), dst...)
		scratch := make([]gf.Elem, s.MaxCap())

		if avg := testing.AllocsPerRun(200, func() {
			if err := s.EncodeInto(e.From, e.To, x, dst); err != nil {
				t.Fatal(err)
			}
			mm, err := s.CheckInto(e.From, e.To, x, y, scratch)
			if err != nil || mm {
				t.Fatalf("CheckInto: mismatch=%v err=%v", mm, err)
			}
		}); avg != 0 {
			t.Errorf("GF(2^%d): Encode+Check steady state allocates %.1f times per op, want 0", deg, avg)
		}

		// The pooled Check form must also settle at zero steady-state
		// allocations (the pool is warm after the first call).
		if avg := testing.AllocsPerRun(200, func() {
			mm, err := s.Check(e.From, e.To, x, y)
			if err != nil || mm {
				t.Fatalf("Check: mismatch=%v err=%v", mm, err)
			}
		}); avg != 0 {
			t.Errorf("GF(2^%d): pooled Check allocates %.1f times per op, want 0", deg, avg)
		}
	}

	// The striped pair at bulk_chan's shape — GF(2^64), rho = 2, 4 096
	// stripes (64 KiB values): the split tables live on the stack and the
	// check's stripes x z_e scratch comes from the scheme's pool.
	s, g := schemeForInto(t, 64)
	rng := rand.New(rand.NewSource(10))
	x := make([]gf.Elem, 4096*s.Rho())
	for i := range x {
		x[i] = s.Field().Rand(rng)
	}
	e := g.Edges()[0]
	y := make([]gf.Elem, 4096*int(e.Cap))
	if err := s.EncodeStripes(e.From, e.To, x, y); err != nil {
		t.Fatal(err)
	}
	dst := make([]gf.Elem, len(y))
	if avg := testing.AllocsPerRun(20, func() {
		if err := s.EncodeStripes(e.From, e.To, x, dst); err != nil {
			t.Fatal(err)
		}
		mm, err := s.CheckStripes(e.From, e.To, x, y)
		if err != nil || mm {
			t.Fatalf("CheckStripes: mismatch=%v err=%v", mm, err)
		}
	}); avg != 0 {
		t.Errorf("EncodeStripes+CheckStripes at 4096 stripes allocate %.1f times per op, want 0", avg)
	}
}

// encodeStripesRef is the per-stripe loop EncodeStripes replaced: one
// single-stripe Encode per stripe, concatenated.
func encodeStripesRef(t testing.TB, s *Scheme, from, to graph.NodeID, x []gf.Elem) []gf.Elem {
	t.Helper()
	var out []gf.Elem
	for r := 0; r < len(x)/s.Rho(); r++ {
		y, err := s.Encode(from, to, x[r*s.Rho():(r+1)*s.Rho()])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, y...)
	}
	return out
}

// TestStripesMatchPerStripe holds EncodeStripes and CheckStripes to the
// per-stripe loop on every edge, on both sides of the split-table cutover
// and on both field regimes, and checks their error cases.
func TestStripesMatchPerStripe(t *testing.T) {
	for _, deg := range []uint{16, 64} {
		s, g := schemeForInto(t, deg)
		rng := rand.New(rand.NewSource(7))
		for _, stripes := range []int{1, 3, 40, 300} {
			x := make([]gf.Elem, stripes*s.Rho())
			for i := range x {
				x[i] = s.Field().Rand(rng)
			}
			for _, e := range g.Edges() {
				want := encodeStripesRef(t, s, e.From, e.To, x)
				got := make([]gf.Elem, len(want))
				if err := s.EncodeStripes(e.From, e.To, x, got); err != nil {
					t.Fatal(err)
				}
				if !ValuesEqual(got, want) {
					t.Fatalf("GF(2^%d) %d stripes, edge (%d,%d): EncodeStripes differs from the per-stripe loop", deg, stripes, e.From, e.To)
				}
				for _, tc := range []struct {
					name     string
					y        []gf.Elem
					mismatch bool
				}{
					{"equal", want, false},
					{"last symbol flipped", flipLast(want), true},
					{"truncated", want[:len(want)-1], true},
					{"missing", nil, true},
				} {
					mm, err := s.CheckStripes(e.From, e.To, x, tc.y)
					if err != nil || mm != tc.mismatch {
						t.Fatalf("GF(2^%d) %d stripes, edge (%d,%d), %s: mismatch=%v err=%v", deg, stripes, e.From, e.To, tc.name, mm, err)
					}
				}
			}
		}
		x := []gf.Elem{1, 2, 3}
		if err := s.EncodeStripes(1, 2, x, make([]gf.Elem, 3)); err == nil {
			t.Error("EncodeStripes with a partial stripe: expected error")
		}
		if _, err := s.CheckStripes(1, 2, nil, nil); err == nil {
			t.Error("CheckStripes with no stripes: expected error")
		}
		if err := s.EncodeStripes(1, 2, x[:2], make([]gf.Elem, 5)); err == nil {
			t.Error("EncodeStripes with a wrong-size destination: expected error")
		}
		if _, err := s.CheckStripes(1, 99, x[:2], nil); err == nil {
			t.Error("CheckStripes on a missing edge: expected error")
		}
	}
}

func flipLast(y []gf.Elem) []gf.Elem {
	out := append([]gf.Elem(nil), y...)
	out[len(out)-1] ^= 1
	return out
}

// BenchmarkSchemeStripes times the striped pair on one edge at
// bulk_chan's shape (GF(2^64), rho = 2, 4 096 stripes: a 64 KiB value);
// SetBytes makes the MB/s column payload bytes per second.
func BenchmarkSchemeStripes(b *testing.B) {
	s, g := schemeForInto(b, 64)
	rng := rand.New(rand.NewSource(2012))
	x := make([]gf.Elem, 4096*s.Rho())
	for i := range x {
		x[i] = s.Field().Rand(rng)
	}
	e := g.Edges()[0]
	y := make([]gf.Elem, 4096*int(e.Cap))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(8 * len(x)))
		for b.Loop() {
			if err := s.EncodeStripes(e.From, e.To, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		b.SetBytes(int64(8 * len(x)))
		for b.Loop() {
			if mm, err := s.CheckStripes(e.From, e.To, x, y); err != nil || mm {
				b.Fatalf("mismatch=%v err=%v", mm, err)
			}
		}
	})
}

// BenchmarkSchemeEncode measures the per-edge coded-symbol computation on
// both field regimes.
func BenchmarkSchemeEncode(b *testing.B) {
	for _, deg := range []uint{16, 64} {
		s, g := schemeForInto(b, deg)
		rng := rand.New(rand.NewSource(2012))
		x := []gf.Elem{s.Field().Rand(rng), s.Field().Rand(rng)}
		e := g.Edges()[0]
		dst := make([]gf.Elem, s.EdgeMatrix(e.From, e.To).Cols())
		name := map[uint]string{16: "GF16", 64: "GF64"}[deg]
		b.Run(name+"/into", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.EncodeInto(e.From, e.To, x, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/alloc", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Encode(e.From, e.To, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
