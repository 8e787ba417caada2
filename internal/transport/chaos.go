package transport

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"nab/internal/graph"
	"nab/internal/metrics"
	"nab/internal/obs"
)

// Chaos is a seeded hostile-network layer that every transport can
// interpose on its links: per-link latency/jitter distributions, reorder
// windows, asymmetric partitions with scheduled heal times, and slow-link
// throttles. It composes with the token-bucket pacer rather than
// replacing it — a chaos-delayed frame still pays its capacity charge
// when it finally enters the wrapped link — and it never loses frames:
// the paper's network is asynchronous but reliable, so chaos only delays
// and reorders; loss is modelled by kill -9 plus the rejoin rollback.
//
// Determinism: every per-frame decision (jitter draw, reorder draw) is a
// pure function of (Seed, link, instance, step). The runtime sends one
// frame per (link, instance, step), so a replayed scenario injects
// identical physics no matter how the goroutines of different in-flight
// instances interleave. Any frame may overtake any other, later steps of
// one instance included: the runtime keys frames by step, not by arrival.
//
// NAB_DEBUG=1 traces partition stalls and link wrapping.
var chaosLog = obs.New("chaos")

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
	// Queue bounds frames in flight inside the chaos layer per link;
	// a full queue blocks Send (physics backpressure). 0 defaults to 4096.
	Queue int `json:"queue,omitempty"`
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
	if c.Queue < 0 {
		return fmt.Errorf("transport: chaos queue must be >= 0")
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

// chaosState is the per-transport half of the chaos layer: the validated
// config, the epoch the partition schedule is anchored to, and the owning
// transport's close signal.
type chaosState struct {
	cfg   *ChaosConfig
	epoch time.Time
	stop  <-chan struct{}
}

// newChaosState validates cfg and anchors its partition schedule at the
// owning transport's construction. A nil cfg yields a nil state, and a
// nil state wraps nothing.
func newChaosState(cfg *ChaosConfig, stop <-chan struct{}) (*chaosState, error) {
	if cfg == nil {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	//nab:ignore determinism -- the epoch anchors partition schedules to transport construction; every chaos decision hashes only (seed, link, instance, step)
	return &chaosState{cfg: cfg, epoch: time.Now(), stop: stop}, nil
}

// wrap interposes chaos physics on the sender half of one directed link.
// mesh.dial wraps each link once and caches the result: two wrappers on
// one link would race their delivery goroutines and slow-link clocks.
func (cs *chaosState) wrap(inner Link, from, to graph.NodeID) Link {
	if cs == nil {
		return inner
	}
	par := cs.cfg.linkParams(from, to)
	parts := cs.cfg.partitionsFor(from, to)
	if par == (LinkChaos{}) && len(parts) == 0 {
		return inner
	}
	if par.ReorderProb > 0 && par.ReorderDelay <= 0 {
		d := 4 * (par.Latency.D() + par.Jitter.D())
		if d < time.Millisecond {
			d = time.Millisecond
		}
		par.ReorderDelay = Duration(d)
	}
	queue := cs.cfg.Queue
	if queue <= 0 {
		queue = 4096
	}
	l := &chaosLink{
		inner: inner,
		cs:    cs,
		key:   [2]graph.NodeID{from, to},
		par:   par,
		parts: parts,
		ch:    make(chan chaosFrame, queue),
	}
	go l.run()
	chaosLog.Debug("link-wrapped", "link", linkString(l.key),
		"latency", par.Latency.D(), "jitter", par.Jitter.D(),
		"reorder_prob", par.ReorderProb, "partitions", len(parts))
	return l
}

// chaosFrame is one frame waiting in a link's release heap.
type chaosFrame struct {
	m   *Message
	at  time.Time
	seq uint64
}

// chaosLink delays, reorders and stalls one directed link's frames, then
// feeds them to the wrapped link — token bucket included — from a single
// delivery goroutine, so whatever order chaos releases is exactly the
// order the wire sees.
type chaosLink struct {
	inner Link
	cs    *chaosState
	key   [2]graph.NodeID
	par   LinkChaos
	parts []Partition
	ch    chan chaosFrame

	mu       sync.Mutex
	err      error     // sticky error from the wrapped link
	seq      uint64    // send-order tiebreak for equal release times
	rateFree time.Time // when the slow link finishes its current frame
}

// Send implements Link: stamp a deterministic release time and hand the
// frame to the delivery goroutine. Frames still undelivered when the
// owning transport closes are lost — like a real network, the air does
// not drain politely; the protocol's shutdown barriers are what keep
// needed frames out of that window.
func (l *chaosLink) Send(m *Message) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	f := l.scheduleLocked(m)
	l.mu.Unlock()
	select {
	case l.ch <- f:
		return nil
	case <-l.cs.stop:
		return ErrClosed
	}
}

// scheduleLocked stamps one frame's release time. All randomness is a
// pure function of (seed, link, instance, step).
func (l *chaosLink) scheduleLocked(m *Message) chaosFrame {
	h := chaosHash(l.cs.cfg.Seed, l.key, m.Instance, m.Step)
	delay := l.par.Latency.D()
	if j := l.par.Jitter.D(); j > 0 {
		delay += time.Duration(unitFromHash(h) * float64(j))
	}
	h = splitmix64(h)
	if p := l.par.ReorderProb; p > 0 && unitFromHash(h) < p {
		h = splitmix64(h)
		delay += time.Duration(unitFromHash(h) * float64(l.par.ReorderDelay.D()))
		mChaosReordered.Inc()
	}
	now := time.Now() //nab:ignore determinism -- release *times* are wall-clock actuation; the delay and ordering above derive purely from the seeded hash
	at := now.Add(delay)
	if r := l.par.RateBits; r > 0 && m.Bits > 0 {
		// Serialization, not just latency: the frame enters the slow link
		// when the previous frame clears it, and occupies it for
		// bits/RateBits seconds. Propagation delay rides on top.
		start := now
		if l.rateFree.After(start) {
			start = l.rateFree
		}
		l.rateFree = start.Add(time.Duration(float64(m.Bits) / float64(r) * float64(time.Second)))
		at = l.rateFree.Add(delay)
	}
	since := now.Sub(l.cs.epoch)
	for _, pt := range l.parts {
		if since >= pt.Start.D() && since < pt.Heal.D() {
			if healAt := l.cs.epoch.Add(pt.Heal.D()); healAt.After(at) {
				at = healAt
				mChaosPartitionStalls.Inc()
				chaosLog.Debug("partition-stall", "link", linkString(l.key),
					//nab:ignore determinism -- log decoration only; no decision consumes this value
					"instance", m.Instance, "heal_in", time.Until(healAt).Round(time.Millisecond))
			}
		}
	}
	l.seq++
	mChaosFrames.Inc()
	mChaosDelay.Observe(at.Sub(now).Seconds())
	return chaosFrame{m: m, at: at, seq: l.seq}
}

// run is the link's delivery goroutine: frames wait in a release-time
// heap and enter the wrapped link in chaos order.
func (l *chaosLink) run() {
	var h chaosHeap
	for {
		var due <-chan time.Time
		if len(h) > 0 {
			//nab:ignore determinism -- the delivery goroutine actuates already-stamped release times on the wall clock; order was fixed in scheduleLocked
			d := time.Until(h[0].at)
			if d <= 0 {
				l.deliver(heap.Pop(&h).(chaosFrame))
				continue
			}
			due = time.After(d) //nab:ignore determinism -- wall-clock sleep until the stamped release time; not a decision input
		}
		select {
		case f := <-l.ch:
			heap.Push(&h, f)
		case <-due:
			l.deliver(heap.Pop(&h).(chaosFrame))
		case <-l.cs.stop:
			return
		}
	}
}

func (l *chaosLink) deliver(f chaosFrame) {
	if err := l.inner.Send(f.m); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		if err != ErrClosed {
			chaosLog.Info("deliver-error", "link", linkString(l.key), "err", err)
		}
	}
}

// chaosHeap orders pending frames by (release time, send order).
type chaosHeap []chaosFrame

func (h chaosHeap) Len() int { return len(h) }
func (h chaosHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h chaosHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *chaosHeap) Push(x any)   { *h = append(*h, x.(chaosFrame)) }
func (h *chaosHeap) Pop() any {
	old := *h
	n := len(old) - 1
	f := old[n]
	*h = old[:n]
	return f
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
