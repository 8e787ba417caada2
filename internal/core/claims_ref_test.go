package core_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/topo"
)

// refMarshalClaims and refUnmarshalClaims are the encoding/json transcript
// codec the binary one replaced (each gf.Elem a decimal, each block
// base64): the reference the binary codec is held to on every value it
// can carry.
func refMarshalClaims(c *core.Claims) []byte {
	raw, err := json.Marshal(c)
	if err != nil {
		panic("marshal claims: " + err.Error())
	}
	return raw
}

func refUnmarshalClaims(raw []byte) *core.Claims {
	if len(raw) == 0 {
		return nil
	}
	var c core.Claims
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil
	}
	return &c
}

// normalizeClaims returns a copy of c with every empty slice nil, the one
// difference the two codecs are allowed (JSON keeps [] and "" apart from
// null; the binary codec decodes both as nil).
func normalizeClaims(c *core.Claims) *core.Claims {
	if c == nil {
		return nil
	}
	blocks := func(in []core.TreeEdgeClaim) []core.TreeEdgeClaim {
		if len(in) == 0 {
			return nil
		}
		out := make([]core.TreeEdgeClaim, len(in))
		for i, tc := range in {
			out[i] = tc
			if len(tc.Block.Bytes) == 0 {
				out[i].Block.Bytes = nil
			}
		}
		return out
	}
	coded := func(in []core.CodedClaim) []core.CodedClaim {
		if len(in) == 0 {
			return nil
		}
		out := make([]core.CodedClaim, len(in))
		for i, cc := range in {
			out[i] = cc
			if len(cc.Symbols) == 0 {
				out[i].Symbols = nil
			}
		}
		return out
	}
	out := *c
	out.SentBlocks, out.RecvBlocks = blocks(c.SentBlocks), blocks(c.RecvBlocks)
	out.SentCoded, out.RecvCoded = coded(c.SentCoded), coded(c.RecvCoded)
	if len(c.SourceInput) == 0 {
		out.SourceInput = nil
	}
	return &out
}

// lyingAlarm raises a false alarm, so Phase 3 runs, and broadcasts a
// rewritten transcript there.
type lyingAlarm struct{ adversary.ClaimLiar }

func (lyingAlarm) OverrideFlag(bool) bool { return true }

// rewriteClaims exercises the corners a Byzantine transcript can reach:
// empty and oversized blocks, negative bit lengths, foreign and empty
// coded claims, extreme symbols, a short source input and a flipped flag.
func rewriteClaims(c *core.Claims) *core.Claims {
	out := *c
	out.SentBlocks = append([]core.TreeEdgeClaim(nil), c.SentBlocks...)
	if len(out.SentBlocks) > 0 {
		out.SentBlocks[0].Block = core.BitChunk{Bytes: []byte{}, BitLen: -3}
	}
	out.RecvBlocks = append(out.RecvBlocks[:0:0], core.TreeEdgeClaim{
		Tree: -1, From: 1 << 40, To: -7, Block: core.BitChunk{Bytes: make([]byte, 300), BitLen: 1 << 20},
	})
	out.RecvCoded = append(append([]core.CodedClaim(nil), c.RecvCoded...),
		core.CodedClaim{From: -1, To: 99, Symbols: []gf.Elem{^gf.Elem(0), 0, 1 << 63}},
		core.CodedClaim{From: 2, To: 1, Symbols: []gf.Elem{}})
	out.SentCoded = nil
	out.SourceInput = []byte{1, 2, 3}
	out.Flag = !c.Flag
	return &out
}

// TestClaimsCodecMatchesJSONReference holds the binary transcript codec to
// the JSON one on transcripts from real Phase-3 runs — K4 with f = 1 and K7
// with f = 2, under crash, false alarm, block flipping, the seeded random
// adversary and a rewritten transcript — and checks both round trips decode
// to the same claims and audit to the same result.
func TestClaimsCodecMatchesJSONReference(t *testing.T) {
	strategies := []struct {
		name string
		adv  func() core.Adversary
	}{
		{"crash", func() core.Adversary { return adversary.Crash{} }},
		{"alarm", func() core.Adversary { return adversary.FalseAlarm{} }},
		{"flip", func() core.Adversary { return &adversary.BlockFlipper{} }},
		{"random", func() core.Adversary { return &adversary.Random{Seed: 11} }},
		{"rewrite", func() core.Adversary {
			return &lyingAlarm{adversary.ClaimLiar{Rewrite: rewriteClaims}}
		}},
	}
	topologies := []struct {
		name     string
		g        *graph.Directed
		f        int
		lenBytes int
		bad      []graph.NodeID
	}{
		{"K4", topo.CompleteBi(4, 1), 1, 16, []graph.NodeID{3}},
		{"K7", topo.CompleteBi(7, 1), 2, 64, []graph.NodeID{5, 3}},
	}
	for _, tp := range topologies {
		for _, st := range strategies {
			t.Run(tp.name+"/"+st.name, func(t *testing.T) {
				advs := map[graph.NodeID]core.Adversary{}
				for _, v := range tp.bad {
					advs[v] = st.adv()
				}
				inputs := make([][]byte, 4)
				for i := range inputs {
					inputs[i] = make([]byte, tp.lenBytes)
					for j := range inputs[i] {
						inputs[i][j] = byte(31*i + 7*j + 1)
					}
				}
				runs, err := core.Phase3Runs(core.Config{
					Graph: tp.g, Source: 1, F: tp.f, LenBytes: tp.lenBytes, Seed: 42, Adversaries: advs,
				}, inputs)
				if err != nil {
					t.Fatal(err)
				}
				if len(runs) == 0 {
					t.Fatal("no instance ran Phase 3")
				}
				for _, run := range runs {
					checkCodecsAgree(t, run)
				}
			})
		}
	}
}

func checkCodecsAgree(t *testing.T, run core.Phase3Run) {
	t.Helper()
	bin := map[graph.NodeID]*core.Claims{}
	ref := map[graph.NodeID]*core.Claims{}
	for q, raw := range run.Raw {
		c := core.DecodeClaims(raw)
		if (c == nil) != (len(raw) == 0) {
			t.Fatalf("instance %d node %d: %d transcript bytes decode to %v", run.Result.K, q, len(raw), c)
		}
		if c == nil {
			bin[q], ref[q] = nil, nil
			continue
		}
		b := core.DecodeClaims(c.Marshal())
		j := refUnmarshalClaims(refMarshalClaims(c))
		if !reflect.DeepEqual(normalizeClaims(b), normalizeClaims(j)) {
			t.Fatalf("instance %d node %d: binary round trip\n%+v\nJSON round trip\n%+v", run.Result.K, q, b, j)
		}
		if !reflect.DeepEqual(normalizeClaims(b), normalizeClaims(c)) {
			t.Fatalf("instance %d node %d: binary round trip changed the claims", run.Result.K, q)
		}
		bin[q], ref[q] = b, j
	}
	got, want := run.Plan.Audit(bin), run.Plan.Audit(ref)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instance %d: audit of binary claims %+v, of JSON claims %+v", run.Result.K, got, want)
	}
}
