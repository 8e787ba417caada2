package transport

import (
	"encoding/json"
	"fmt"
	"time"

	"nab/internal/graph"
	"nab/internal/metrics"
)

// Chaos is a seeded hostile-network layer that every transport can
// interpose on its links: per-link latency/jitter distributions, reorder
// windows, asymmetric partitions with scheduled heal times, and slow-link
// throttles. Chaos only stamps each frame's release time in its link's
// queue (mesh.go); the token-bucket pacer still charges the frame when it
// is released, so chaos composes outside pacing rather than replacing it.
// Chaos never drops a frame: the paper's network is asynchronous but
// reliable, so chaos only delays and reorders. Loss is modelled by kill -9
// plus the rejoin rollback. At Close a link's queue is flushed without
// waiting for release times, best effort within one second shared by every
// link: a frame that then meets a closed receiver, a full inbox or a
// dropped socket is discarded.
//
// Determinism: every per-frame decision (jitter draw, reorder draw) is a
// pure function of (Seed, link, instance, step). The runtime sends one
// frame per (link, instance, step), so a replayed scenario injects
// identical physics no matter how the goroutines of different in-flight
// instances interleave. Any frame may overtake any other, later steps of
// one instance included: the runtime keys frames by step, not by arrival.

// Chaos-layer instruments. Counters are global (not per-link): chaos is
// scenario tooling and its hot path should stay two atomic increments.
var (
	mChaosFrames = metrics.NewCounter("nab_chaos_frames_total",
		"Frames routed through the chaos layer.")
	mChaosReordered = metrics.NewCounter("nab_chaos_reordered_total",
		"Frames held back by a reorder window so later frames could overtake.")
	mChaosPartitionStalls = metrics.NewCounter("nab_chaos_partition_stalls_total",
		"Frames stalled until a partition's scheduled heal time.")
	mChaosDelay = metrics.NewHistogram("nab_chaos_delay_seconds",
		"Artificial per-frame delay injected by the chaos layer.", metrics.LatencyBuckets)
)

// Duration is a time.Duration that marshals as a human-readable string
// ("50ms"), so chaos specs read naturally inside cluster.json. Plain
// JSON numbers are accepted as nanoseconds.
type Duration time.Duration

// D unwraps to a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("transport: chaos duration %q: %w", x, err)
		}
		*d = Duration(parsed)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("transport: chaos duration must be a string like \"50ms\"")
	}
	return nil
}

// LinkChaos is the physics profile of one directed link.
type LinkChaos struct {
	// Latency is a fixed one-way delay added to every frame.
	Latency Duration `json:"latency,omitempty"`
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter Duration `json:"jitter,omitempty"`
	// ReorderProb is the probability a frame is additionally held back by
	// up to ReorderDelay, letting frames sent after it overtake.
	ReorderProb float64 `json:"reorderProb,omitempty"`
	// ReorderDelay bounds the reorder hold; zero with a positive
	// ReorderProb defaults to 4x(Latency+Jitter), minimum 1ms.
	ReorderDelay Duration `json:"reorderDelay,omitempty"`
	// RateBits throttles the link to RateBits payload bits per second: a
	// frame of b bits occupies the slow link for b/RateBits seconds and
	// later frames queue behind it — true serialization on top of (not
	// instead of) any token-bucket pacing. Zero disables. Empty step
	// frames are free, exactly as in the paper's accounting.
	RateBits int64 `json:"rateBits,omitempty"`
}

// LinkRule scopes a LinkChaos profile to matching links. A zero From or
// To matches any node; first matching rule wins.
type LinkRule struct {
	From graph.NodeID `json:"from,omitempty"`
	To   graph.NodeID `json:"to,omitempty"`
	LinkChaos
}

// Partition is one scheduled asymmetric partition: frames sent from any
// node in From to any node in To during [Start, Heal) are stalled until
// Heal. An empty node set matches all nodes; direction matters, so a
// partition can sever 2->3 while 3->2 stays healthy.
type Partition struct {
	From []graph.NodeID `json:"from,omitempty"`
	To   []graph.NodeID `json:"to,omitempty"`
	// Start and Heal are measured from transport construction.
	Start Duration `json:"start"`
	Heal  Duration `json:"heal"`
}

// ChaosConfig is a seeded chaos scenario, shared verbatim by every
// process of a cluster (it lives in cluster.json) so all endpoints agree
// on the physics.
type ChaosConfig struct {
	Seed int64 `json:"seed"`
	// Default applies to every link without a matching rule in Links.
	Default LinkChaos `json:"default"`
	// Links overrides the default per directed link.
	Links []LinkRule `json:"links,omitempty"`
	// Partitions schedules asymmetric partitions with heal times.
	Partitions []Partition `json:"partitions,omitempty"`
}

// Validate checks ranges; a nil config is valid (chaos off).
func (c *ChaosConfig) Validate() error {
	if c == nil {
		return nil
	}
	check := func(what string, lc LinkChaos) error {
		if lc.Latency < 0 || lc.Jitter < 0 || lc.ReorderDelay < 0 {
			return fmt.Errorf("transport: chaos %s: negative duration", what)
		}
		if lc.ReorderProb < 0 || lc.ReorderProb > 1 {
			return fmt.Errorf("transport: chaos %s: reorderProb %v outside [0,1]", what, lc.ReorderProb)
		}
		if lc.RateBits < 0 {
			return fmt.Errorf("transport: chaos %s: negative rateBits", what)
		}
		return nil
	}
	if err := check("default", c.Default); err != nil {
		return err
	}
	for i, r := range c.Links {
		if err := check(fmt.Sprintf("links[%d]", i), r.LinkChaos); err != nil {
			return err
		}
	}
	for i, pt := range c.Partitions {
		if pt.Start < 0 || pt.Heal <= pt.Start {
			return fmt.Errorf("transport: chaos partitions[%d]: need 0 <= start < heal", i)
		}
	}
	return nil
}

// linkParams resolves the effective profile of one directed link.
func (c *ChaosConfig) linkParams(from, to graph.NodeID) LinkChaos {
	for _, r := range c.Links {
		if (r.From == 0 || r.From == from) && (r.To == 0 || r.To == to) {
			return r.LinkChaos
		}
	}
	return c.Default
}

// partitionsFor filters the partitions that cover one directed link.
func (c *ChaosConfig) partitionsFor(from, to graph.NodeID) []Partition {
	var out []Partition
	for _, pt := range c.Partitions {
		if nodeSetHas(pt.From, from) && nodeSetHas(pt.To, to) {
			out = append(out, pt)
		}
	}
	return out
}

func nodeSetHas(set []graph.NodeID, v graph.NodeID) bool {
	if len(set) == 0 {
		return true
	}
	for _, n := range set {
		if n == v {
			return true
		}
	}
	return false
}

// linkChaos is the chaos physics of one directed link: its resolved
// profile, the partitions covering it, and the slow-link clock. The link
// stamps each frame with release under its queue lock.
type linkChaos struct {
	seed     int64
	epoch    time.Time // partition schedules count from here
	key      [2]graph.NodeID
	par      LinkChaos
	parts    []Partition
	rateFree time.Time // when the slow link finishes its current frame
}

// forLink resolves the physics of link (from, to) with partition
// schedules anchored at epoch; nil means the link carries no chaos (no
// config, or a zero profile and no partition).
func (c *ChaosConfig) forLink(from, to graph.NodeID, epoch time.Time) *linkChaos {
	if c == nil {
		return nil
	}
	par := c.linkParams(from, to)
	parts := c.partitionsFor(from, to)
	if par == (LinkChaos{}) && len(parts) == 0 {
		return nil
	}
	if par.ReorderProb > 0 && par.ReorderDelay <= 0 {
		d := 4 * (par.Latency.D() + par.Jitter.D())
		if d < time.Millisecond {
			d = time.Millisecond
		}
		par.ReorderDelay = Duration(d)
	}
	key := [2]graph.NodeID{from, to}
	return &linkChaos{seed: c.Seed, epoch: epoch, key: key, par: par, parts: parts}
}

// release stamps the release time of frame m sent at now. All randomness
// is a pure function of (seed, link, instance, step).
func (lc *linkChaos) release(m *Message, now time.Time) time.Time {
	h := chaosHash(lc.seed, lc.key, m.Instance, m.Step)
	delay := lc.par.Latency.D()
	if j := lc.par.Jitter.D(); j > 0 {
		delay += time.Duration(unitFromHash(h) * float64(j))
	}
	h = splitmix64(h)
	if p := lc.par.ReorderProb; p > 0 && unitFromHash(h) < p {
		h = splitmix64(h)
		delay += time.Duration(unitFromHash(h) * float64(lc.par.ReorderDelay.D()))
		mChaosReordered.Inc()
	}
	at := now.Add(delay)
	if r := lc.par.RateBits; r > 0 && m.Bits > 0 {
		// Serialization, not just latency: the frame enters the slow link
		// when the previous frame clears it, and occupies it for
		// bits/RateBits seconds. Propagation delay rides on top.
		start := now
		if lc.rateFree.After(start) {
			start = lc.rateFree
		}
		lc.rateFree = start.Add(time.Duration(float64(m.Bits) / float64(r) * float64(time.Second)))
		at = lc.rateFree.Add(delay)
	}
	since := now.Sub(lc.epoch)
	for _, pt := range lc.parts {
		if since >= pt.Start.D() && since < pt.Heal.D() {
			if healAt := lc.epoch.Add(pt.Heal.D()); healAt.After(at) {
				at = healAt
				mChaosPartitionStalls.Inc()
			}
		}
	}
	mChaosFrames.Inc()
	mChaosDelay.Observe(at.Sub(now).Seconds())
	return at
}

// splitmix64 is the SplitMix64 finalizer — the same mixing the runtime
// uses for per-launch plan seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosHash folds one frame's coordinates into a 64-bit draw.
func chaosHash(seed int64, key [2]graph.NodeID, inst uint64, step uint32) uint64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(int64(key[0]))<<32 ^ uint64(int64(key[1])))
	h = splitmix64(h ^ inst)
	return splitmix64(h ^ uint64(step))
}

// unitFromHash maps a 64-bit draw to [0, 1).
func unitFromHash(h uint64) float64 { return float64(h>>11) / (1 << 53) }
