package transport

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"nab/internal/graph"
)

// recordLink is a fake inner link capturing delivery order and times.
type recordLink struct {
	mu    sync.Mutex
	msgs  []*Message
	times []time.Time
}

func (r *recordLink) Send(m *Message) error {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.times = append(r.times, time.Now())
	r.mu.Unlock()
	return nil
}

func (r *recordLink) Close() error { return nil }

func (r *recordLink) snapshot() []*Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Message(nil), r.msgs...)
}

func (r *recordLink) waitFor(t *testing.T, n int, timeout time.Duration) []*Message {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		got := r.snapshot()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames delivered within %v", len(got), n, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func wrapOn(t *testing.T, cfg *ChaosConfig, from, to graph.NodeID) (*recordLink, Link, chan struct{}) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
	})
	cs, err := newChaosState(cfg, stop)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordLink{}
	return rec, cs.wrap(rec, from, to), stop
}

func TestChaosConfigValidate(t *testing.T) {
	bad := []*ChaosConfig{
		{Default: LinkChaos{Latency: -1}},
		{Default: LinkChaos{ReorderProb: 1.5}},
		{Default: LinkChaos{RateBits: -8}},
		{Partitions: []Partition{{Start: Duration(time.Second), Heal: Duration(time.Second)}}},
		{Partitions: []Partition{{Start: Duration(2 * time.Second), Heal: Duration(time.Second)}}},
		{Queue: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	var nilCfg *ChaosConfig
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config must validate (chaos off): %v", err)
	}
	good := &ChaosConfig{
		Seed:    42,
		Default: LinkChaos{Latency: Duration(time.Millisecond), Jitter: Duration(time.Millisecond), ReorderProb: 0.3},
		Links:   []LinkRule{{From: 1, LinkChaos: LinkChaos{RateBits: 1000}}},
		Partitions: []Partition{
			{From: []graph.NodeID{2}, To: []graph.NodeID{3}, Start: Duration(10 * time.Millisecond), Heal: Duration(20 * time.Millisecond)},
		},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestChaosConfigJSONRoundTrip(t *testing.T) {
	cfg := &ChaosConfig{
		Seed:    7,
		Default: LinkChaos{Latency: Duration(2 * time.Millisecond), Jitter: Duration(5 * time.Millisecond), ReorderProb: 0.25},
		Links:   []LinkRule{{From: 1, To: 2, LinkChaos: LinkChaos{RateBits: 4096}}},
		Partitions: []Partition{
			{From: []graph.NodeID{2}, To: []graph.NodeID{3}, Start: Duration(50 * time.Millisecond), Heal: Duration(300 * time.Millisecond)},
		},
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Durations must read as humans write them in cluster.json.
	if want := `"latency":"2ms"`; !jsonContains(raw, want) {
		t.Errorf("marshaled config %s missing %s", raw, want)
	}
	back := &ChaosConfig{}
	if err := json.Unmarshal(raw, back); err != nil {
		t.Fatal(err)
	}
	if back.Default.Latency != cfg.Default.Latency || back.Partitions[0].Heal != cfg.Partitions[0].Heal {
		t.Errorf("round trip mangled durations: %+v vs %+v", back, cfg)
	}
	// Raw nanosecond numbers are accepted too.
	var d Duration
	if err := json.Unmarshal([]byte("1000000"), &d); err != nil || d.D() != time.Millisecond {
		t.Errorf("numeric duration: %v %v", d.D(), err)
	}
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Error("garbage duration accepted")
	}
}

func jsonContains(raw []byte, sub string) bool {
	s := string(raw)
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestChaosScheduleSeeded pins the determinism contract: per-frame delays
// are a pure function of (seed, link, instance, step), so two links built
// from one config schedule identical physics, and a different seed
// schedules different physics.
func TestChaosScheduleSeeded(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		cfg := &ChaosConfig{
			Seed:    seed,
			Default: LinkChaos{Latency: Duration(5 * time.Millisecond), Jitter: Duration(100 * time.Millisecond), ReorderProb: 0.4, ReorderDelay: Duration(200 * time.Millisecond)},
		}
		stop := make(chan struct{})
		defer close(stop)
		cs, err := newChaosState(cfg, stop)
		if err != nil {
			t.Fatal(err)
		}
		cl := cs.wrap(&recordLink{}, 1, 2).(*chaosLink)
		out := make([]time.Duration, 0, 24)
		base := time.Now()
		cl.mu.Lock()
		for i := 0; i < 24; i++ {
			f := cl.scheduleLocked(&Message{Instance: uint64(i % 3), Step: uint32(i), From: 1, To: 2, Bits: 8})
			out = append(out, f.at.Sub(base))
		}
		cl.mu.Unlock()
		return out
	}
	a, b := mk(99), mk(99)
	for i := range a {
		if diff := a[i] - b[i]; diff < -20*time.Millisecond || diff > 20*time.Millisecond {
			t.Fatalf("frame %d: same seed scheduled %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(100)
	same := 0
	for i := range a {
		if diff := a[i] - c[i]; diff > -time.Millisecond && diff < time.Millisecond {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds scheduled identical physics")
	}
}

// TestChaosLaterStepOvertakes floods a link with one instance's step
// frames under an aggressive reorder window: every frame arrives exactly
// once, and later steps do overtake earlier ones. Nothing above the
// transport needs per-instance order any more — the runtime keys frames
// by step — so chaos no longer clamps it.
func TestChaosLaterStepOvertakes(t *testing.T) {
	cfg := &ChaosConfig{
		Seed:    1,
		Default: LinkChaos{Jitter: Duration(3 * time.Millisecond), ReorderProb: 0.5, ReorderDelay: Duration(40 * time.Millisecond)},
	}
	rec, l, _ := wrapOn(t, cfg, 1, 2)
	const steps = 32
	for i := 0; i < steps; i++ {
		if err := l.Send(&Message{Instance: 1, Step: uint32(i), From: 1, To: 2, Bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	got := rec.waitFor(t, steps, 5*time.Second)
	seen := map[uint32]bool{}
	overtakes := 0
	for i, m := range got {
		if seen[m.Step] {
			t.Fatalf("step %d delivered twice", m.Step)
		}
		seen[m.Step] = true
		if i > 0 && m.Step < got[i-1].Step {
			overtakes++
		}
	}
	if overtakes == 0 {
		t.Error("no later step overtook an earlier one of the same instance")
	}
}

// TestChaosPartitionStallsAndHeals pins partition semantics: frames sent
// into the window wait for the heal (never lost), the reverse direction
// stays healthy (asymmetry), and post-heal sends flow normally.
func TestChaosPartitionStallsAndHeals(t *testing.T) {
	heal := 400 * time.Millisecond
	cfg := &ChaosConfig{
		Seed: 3,
		Partitions: []Partition{
			{From: []graph.NodeID{1}, To: []graph.NodeID{2}, Start: 0, Heal: Duration(heal)},
		},
	}
	stop := make(chan struct{})
	defer close(stop)
	cs, err := newChaosState(cfg, stop)
	if err != nil {
		t.Fatal(err)
	}
	fwd := &recordLink{}
	rev := &recordLink{}
	lf := cs.wrap(fwd, 1, 2)
	lr := cs.wrap(rev, 2, 1)
	start := time.Now()
	if err := lf.Send(&Message{Instance: 1, From: 1, To: 2, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if err := lr.Send(&Message{Instance: 1, From: 2, To: 1, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	rev.waitFor(t, 1, time.Second)
	if got := fwd.snapshot(); len(got) != 0 && time.Since(start) < heal/2 {
		t.Fatalf("partitioned frame delivered %v after send, before heal", time.Since(start))
	}
	fwd.waitFor(t, 1, 5*time.Second)
	fwd.mu.Lock()
	delivered := fwd.times[0]
	fwd.mu.Unlock()
	if held := delivered.Sub(start); held < heal-20*time.Millisecond {
		t.Errorf("partitioned frame released %v after send, want >= %v", held, heal)
	}
	// The partition has healed; traffic flows promptly again.
	time.Sleep(50 * time.Millisecond)
	t2 := time.Now()
	if err := lf.Send(&Message{Instance: 1, From: 1, To: 2, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	fwd.waitFor(t, 2, time.Second)
	fwd.mu.Lock()
	after := fwd.times[1]
	fwd.mu.Unlock()
	if lag := after.Sub(t2); lag > 200*time.Millisecond {
		t.Errorf("post-heal frame took %v", lag)
	}
}

// TestChaosSlowLinkSerializes pins RateBits as serialization: frames
// queue behind each other on the slow link instead of overlapping.
func TestChaosSlowLinkSerializes(t *testing.T) {
	cfg := &ChaosConfig{
		Seed:  5,
		Links: []LinkRule{{From: 1, To: 2, LinkChaos: LinkChaos{RateBits: 100_000}}},
	}
	rec, l, _ := wrapOn(t, cfg, 1, 2)
	start := time.Now()
	for i := 0; i < 3; i++ {
		// 10_000 bits at 100_000 bits/s = 100ms on the wire each.
		if err := l.Send(&Message{Instance: 1, Step: uint32(i), From: 1, To: 2, Bits: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	rec.waitFor(t, 3, 5*time.Second)
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Errorf("three 100ms frames cleared the slow link in %v — not serialized", el)
	}
	// Empty step frames are free: they ride the propagation path only.
	m := &Message{Instance: 1, Step: 3, From: 1, To: 2, Body: []Packet{}}
	t3 := time.Now()
	if err := l.Send(m); err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, 4, time.Second)
	rec.mu.Lock()
	emptyAt := rec.times[3]
	rec.mu.Unlock()
	if lag := emptyAt.Sub(t3); lag > 100*time.Millisecond {
		t.Errorf("free empty frame delayed %v by the throttle", lag)
	}
}

// TestChaosLinkRuleScoping checks per-link overrides: a scoped rule wins
// over the default, and untouched links bypass chaos entirely.
func TestChaosLinkRuleScoping(t *testing.T) {
	cfg := &ChaosConfig{
		Seed:  9,
		Links: []LinkRule{{From: 1, To: 2, LinkChaos: LinkChaos{Latency: Duration(150 * time.Millisecond)}}},
	}
	stop := make(chan struct{})
	defer close(stop)
	cs, err := newChaosState(cfg, stop)
	if err != nil {
		t.Fatal(err)
	}
	slow := &recordLink{}
	ls := cs.wrap(slow, 1, 2)
	if _, ok := ls.(*chaosLink); !ok {
		t.Fatal("matched link not wrapped")
	}
	fast := &recordLink{}
	lf := cs.wrap(fast, 2, 1)
	if _, ok := lf.(*recordLink); !ok {
		t.Fatal("unmatched link should bypass chaos (zero profile, no partitions)")
	}
	start := time.Now()
	if err := ls.Send(&Message{Instance: 1, From: 1, To: 2, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	slow.waitFor(t, 1, time.Second)
	if el := time.Since(start); el < 120*time.Millisecond {
		t.Errorf("scoped latency not applied: delivered after %v", el)
	}
}

// TestChanChaosEndToEnd drives the chaos layer through the real Chan bus:
// delayed and reordered frames all arrive once, per-link accounting still
// matches, and repeat dials share one wrapped link.
func TestChanChaosEndToEnd(t *testing.T) {
	g := mustParse(t, "1 2 8\n2 1 8")
	tr := NewChan(g, ChanOptions{Chaos: &ChaosConfig{
		Seed:    11,
		Default: LinkChaos{Latency: Duration(5 * time.Millisecond), Jitter: Duration(10 * time.Millisecond), ReorderProb: 0.3},
	}})
	defer tr.Close()
	l1, err := tr.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := tr.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("repeat dial of a chaos link must share the wrapped state")
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l1.Send(&Message{Instance: 7, Step: uint32(i), From: 1, To: 2, Bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint32]bool{}
	for i := 0; i < n; i++ {
		m, err := tr.Recv(2)
		if err != nil {
			t.Fatal(err)
		}
		if m.Step >= n || seen[m.Step] {
			t.Fatalf("step %d delivered through Chan chaos twice or out of range", m.Step)
		}
		seen[m.Step] = true
	}
	if got := tr.LinkBits()[[2]graph.NodeID{1, 2}]; got != 8*n {
		t.Errorf("accounting through chaos: %d bits, want %d", got, 8*n)
	}
	bad := NewChan(g, ChanOptions{Chaos: &ChaosConfig{Default: LinkChaos{ReorderProb: 2}}})
	defer bad.Close()
	if _, err := bad.Dial(1, 2); err == nil {
		t.Error("invalid chaos config accepted by Dial")
	}
}

func mustParse(t *testing.T, topo string) *graph.Directed {
	t.Helper()
	g, err := graph.ParseDirected(topo)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
