// Package adversary provides concrete Byzantine strategies for NAB's fault
// model: Phase-1 corruption and source equivocation, equality-check symbol
// corruption, false-flag announcements, transcript lies, and crashes.
// Every strategy embeds core.Honest and overrides only the hooks it
// attacks, so composition stays explicit.
package adversary

import (
	"math/rand"

	"nab/internal/core"
	"nab/internal/gf"
	"nab/internal/graph"
)

// Crash never sends anything in any phase (fail-stop).
type Crash struct{ core.Honest }

var _ core.Adversary = Crash{}

// SilentIn reports every phase silent.
func (Crash) SilentIn(string) bool { return true }

// BlockFlipper corrupts Phase-1 blocks forwarded to the victims by flipping
// their first bit. With Victims nil, every child is attacked. A faulty
// source with this strategy equivocates: different children receive
// different values.
type BlockFlipper struct {
	core.Honest
	Victims map[graph.NodeID]bool // nil = everyone
}

var _ core.Adversary = (*BlockFlipper)(nil)

// CorruptBlock flips the leading bit of the block for targeted children.
func (b *BlockFlipper) CorruptBlock(_ int, to graph.NodeID, block core.BitChunk) core.BitChunk {
	if b.Victims != nil && !b.Victims[to] {
		return block
	}
	if block.BitLen == 0 || len(block.Bytes) == 0 {
		return block
	}
	out := core.BitChunk{Bytes: append([]byte(nil), block.Bytes...), BitLen: block.BitLen}
	out.Bytes[0] ^= 0x80
	return out
}

// CodedCorruptor corrupts the equality-check symbols sent to the victims
// (XORing a constant into each symbol), attacking Phase 2's detection
// itself.
type CodedCorruptor struct {
	core.Honest
	Victims map[graph.NodeID]bool // nil = everyone
	Delta   gf.Elem               // 0 treated as 1
}

var _ core.Adversary = (*CodedCorruptor)(nil)

// CorruptCoded XORs Delta into every symbol for targeted receivers.
func (c *CodedCorruptor) CorruptCoded(to graph.NodeID, symbols []gf.Elem) []gf.Elem {
	if c.Victims != nil && !c.Victims[to] {
		return symbols
	}
	d := c.Delta
	if d == 0 {
		d = 1
	}
	out := make([]gf.Elem, len(symbols))
	for i, s := range symbols {
		out[i] = s ^ d
	}
	return out
}

// FalseAlarm always announces MISMATCH, forcing Phase 3 even when Phases 1
// and 2 were clean — the griefing attack whose cost the dispute-control
// bound f(f+1) caps.
type FalseAlarm struct{ core.Honest }

var _ core.Adversary = FalseAlarm{}

// OverrideFlag announces MISMATCH regardless of the honest computation.
func (FalseAlarm) OverrideFlag(bool) bool { return true }

// Suppressor always announces NULL, hiding mismatches it observed (safe for
// the protocol: the EC property only needs one fault-free detector).
type Suppressor struct{ core.Honest }

var _ core.Adversary = Suppressor{}

// OverrideFlag announces NULL regardless of the honest computation.
func (Suppressor) OverrideFlag(bool) bool { return false }

// ClaimLiar broadcasts dispute-control claims that deny responsibility: it
// reports its honest duties (as if it forwarded everything correctly),
// regardless of what it actually sent. Combined with BlockFlipper this
// yields the classic "he said / she said" dispute between the liar and its
// honest victims.
type ClaimLiar struct {
	core.Honest
	Rewrite func(*core.Claims) *core.Claims
}

var _ core.Adversary = (*ClaimLiar)(nil)

// CorruptClaims applies the rewrite (nil Rewrite = stay silent in Phase 3).
func (cl *ClaimLiar) CorruptClaims(c *core.Claims) *core.Claims {
	if cl.Rewrite == nil {
		return nil
	}
	return cl.Rewrite(c)
}

// MuteClaims participates everywhere but refuses to broadcast claims,
// guaranteeing identification in the audit.
type MuteClaims struct{ core.Honest }

var _ core.Adversary = MuteClaims{}

// CorruptClaims drops the transcript.
func (MuteClaims) CorruptClaims(*core.Claims) *core.Claims { return nil }

// Random flips coins for every decision, driven by a seeded RNG — the
// fuzzing adversary for correctness sweeps (E8). Every instance k draws
// from a fresh stream derived from (Seed, k), so hook sequences are
// reproducible under pipelined speculation, barrier replays and
// multi-process clusters at any window.
type Random struct {
	core.Honest
	Seed int64

	stream *rand.Rand // this instance's draws; nil until first used
}

var _ core.Adversary = (*Random)(nil)
var _ core.InstanceScoped = (*Random)(nil)

// ForInstance implements core.InstanceScoped: instance k gets its own
// stream, seeded by (Seed, k) via a splitmix64 finalizer, so re-executions
// of instance k behave identically.
func (r *Random) ForInstance(k int) core.Adversary {
	z := uint64(r.Seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &Random{Seed: r.Seed, stream: rand.New(rand.NewSource(int64(z ^ (z >> 31))))}
}

// rng returns the stream to draw from, seeding it from Seed when a Random
// is used directly rather than through ForInstance.
func (r *Random) rng() *rand.Rand {
	if r.stream == nil {
		r.stream = rand.New(rand.NewSource(r.Seed))
	}
	return r.stream
}

// CorruptBlock randomly flips one bit half the time.
func (r *Random) CorruptBlock(_ int, _ graph.NodeID, block core.BitChunk) core.BitChunk {
	if r.rng().Intn(2) == 0 || block.BitLen == 0 {
		return block
	}
	out := core.BitChunk{Bytes: append([]byte(nil), block.Bytes...), BitLen: block.BitLen}
	bit := r.rng().Intn(block.BitLen)
	out.Bytes[bit/8] ^= 1 << (7 - bit%8)
	return out
}

// CorruptCoded randomly perturbs one symbol a third of the time.
func (r *Random) CorruptCoded(_ graph.NodeID, symbols []gf.Elem) []gf.Elem {
	if len(symbols) == 0 || r.rng().Intn(3) != 0 {
		return symbols
	}
	out := append([]gf.Elem(nil), symbols...)
	out[r.rng().Intn(len(out))] ^= 1 + uint64(r.rng().Intn(7))
	return out
}

// OverrideFlag lies about the flag a quarter of the time.
func (r *Random) OverrideFlag(honest bool) bool {
	if r.rng().Intn(4) == 0 {
		return !honest
	}
	return honest
}

// SilentIn crashes out of a phase a tenth of the time.
func (r *Random) SilentIn(string) bool { return r.rng().Intn(10) == 0 }
