package adversary

import (
	"testing"

	"nab/internal/core"
	"nab/internal/gf"
	"nab/internal/graph"
)

func chunk(bits int, fill byte) core.BitChunk {
	c := core.BitChunk{Bytes: make([]byte, (bits+7)/8), BitLen: bits}
	for i := range c.Bytes {
		c.Bytes[i] = fill
	}
	return c
}

func TestCrashSilentEverywhere(t *testing.T) {
	a := Crash{}
	for _, phase := range []string{"phase1", "equality", "flags", "claims"} {
		if !a.SilentIn(phase) {
			t.Errorf("Crash participates in %s", phase)
		}
	}
}

func TestBlockFlipper(t *testing.T) {
	a := &BlockFlipper{}
	in := chunk(16, 0x00)
	out := a.CorruptBlock(0, 2, in)
	if out.Bytes[0] != 0x80 {
		t.Errorf("first bit not flipped: %x", out.Bytes)
	}
	if in.Bytes[0] != 0x00 {
		t.Error("input mutated in place")
	}
	// Empty blocks pass through.
	empty := a.CorruptBlock(0, 2, core.BitChunk{})
	if empty.BitLen != 0 {
		t.Error("empty block mangled")
	}
	// Victim targeting.
	targeted := &BlockFlipper{Victims: map[graph.NodeID]bool{3: true}}
	if got := targeted.CorruptBlock(0, 2, in); got.Bytes[0] != 0 {
		t.Error("non-victim corrupted")
	}
	if got := targeted.CorruptBlock(0, 3, in); got.Bytes[0] != 0x80 {
		t.Error("victim not corrupted")
	}
}

func TestCodedCorruptor(t *testing.T) {
	a := &CodedCorruptor{Delta: 0x5}
	in := []gf.Elem{1, 2, 3}
	out := a.CorruptCoded(2, in)
	for i := range in {
		if out[i] != in[i]^0x5 {
			t.Errorf("symbol %d: %d", i, out[i])
		}
	}
	// Zero delta defaults to 1.
	d := &CodedCorruptor{}
	if got := d.CorruptCoded(2, []gf.Elem{7}); got[0] != 6 {
		t.Errorf("default delta: %d", got[0])
	}
	// Victim targeting leaves others alone.
	tg := &CodedCorruptor{Victims: map[graph.NodeID]bool{9: true}}
	if got := tg.CorruptCoded(2, []gf.Elem{7}); got[0] != 7 {
		t.Error("non-victim corrupted")
	}
}

func TestFlagAdversaries(t *testing.T) {
	if !(FalseAlarm{}).OverrideFlag(false) {
		t.Error("FalseAlarm should announce MISMATCH")
	}
	if (Suppressor{}).OverrideFlag(true) {
		t.Error("Suppressor should announce NULL")
	}
}

func TestClaimLiar(t *testing.T) {
	silent := &ClaimLiar{}
	if silent.CorruptClaims(&core.Claims{Node: 1}) != nil {
		t.Error("nil Rewrite should drop claims")
	}
	rewriter := &ClaimLiar{Rewrite: func(c *core.Claims) *core.Claims {
		c.Flag = !c.Flag
		return c
	}}
	out := rewriter.CorruptClaims(&core.Claims{Node: 1, Flag: false})
	if out == nil || !out.Flag {
		t.Error("rewrite not applied")
	}
	if (MuteClaims{}).CorruptClaims(&core.Claims{}) != nil {
		t.Error("MuteClaims should drop claims")
	}
}

// TestRandomAdversaryDeterministic: one seed gives one stream, per
// instance: two Randoms of equal Seed agree on instance k however often
// ForInstance is asked, and distinct instances draw distinct streams.
func TestRandomAdversaryDeterministic(t *testing.T) {
	a1, a2 := &Random{Seed: 5}, &Random{Seed: 5}
	in := chunk(32, 0xAA)
	draws := func(a core.Adversary) string {
		var out []byte
		for i := 0; i < 50; i++ {
			b := a.CorruptBlock(0, 2, in)
			out = append(out, b.Bytes...)
		}
		return string(out)
	}
	for k := 1; k <= 3; k++ {
		if draws(a1.ForInstance(k)) != draws(a2.ForInstance(k)) {
			t.Fatalf("instance %d: same seed diverged", k)
		}
	}
	if draws(a1.ForInstance(1)) == draws(a1.ForInstance(2)) {
		t.Error("instances 1 and 2 drew the same stream")
	}
	if draws(a1) != draws(a2) {
		t.Error("same seed diverged outside ForInstance")
	}
}

func TestHonestDefaults(t *testing.T) {
	// The embedded Honest passes everything through for hooks the
	// strategies don't override.
	bf := &BlockFlipper{}
	if bf.OverrideFlag(true) != true || bf.OverrideFlag(false) != false {
		t.Error("BlockFlipper should not touch flags")
	}
	if bf.SilentIn("phase1") {
		t.Error("BlockFlipper should participate")
	}
	c := &core.Claims{Node: 3}
	if bf.CorruptClaims(c) != c {
		t.Error("BlockFlipper should not touch claims")
	}
}
