package transport

import (
	"encoding/json"
	"testing"
	"time"

	"nab/internal/graph"
)

// arrival is one frame received at a node and when it arrived.
type arrival struct {
	m  *Message
	at time.Time
}

// recvN receives n frames at node v, stamping each arrival, and fails the
// test if they take longer than timeout.
func recvN(t *testing.T, tr Transport, v graph.NodeID, n int, timeout time.Duration) []arrival {
	t.Helper()
	got := make(chan arrival, n)
	go func() {
		for i := 0; i < n; i++ {
			m, err := tr.Recv(v)
			if err != nil {
				return
			}
			got <- arrival{m, time.Now()}
		}
	}()
	out := make([]arrival, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case a := <-got:
			out = append(out, a)
		case <-deadline:
			t.Fatalf("only %d of %d frames reached node %d within %v", len(out), n, v, timeout)
		}
	}
	return out
}

// chaosChan is a two-node bus, links (1,2) and (2,1), under cfg.
func chaosChan(t *testing.T, cfg *ChaosConfig) *Chan {
	t.Helper()
	tr := NewChan(mustParse(t, "1 2 8\n2 1 8"), ChanOptions{Chaos: cfg})
	t.Cleanup(func() { tr.Close() })
	return tr
}

func mustDial(t *testing.T, tr Transport, from, to graph.NodeID) Link {
	t.Helper()
	l, err := tr.Dial(from, to)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestChaosConfigValidate(t *testing.T) {
	bad := []*ChaosConfig{
		{Default: LinkChaos{Latency: -1}},
		{Default: LinkChaos{ReorderProb: 1.5}},
		{Default: LinkChaos{RateBits: -8}},
		{Partitions: []Partition{{Start: Duration(time.Second), Heal: Duration(time.Second)}}},
		{Partitions: []Partition{{Start: Duration(2 * time.Second), Heal: Duration(time.Second)}}},
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
	base := time.Now()
	mk := func(seed int64) []time.Duration {
		cfg := &ChaosConfig{
			Seed:    seed,
			Default: LinkChaos{Latency: Duration(5 * time.Millisecond), Jitter: Duration(100 * time.Millisecond), ReorderProb: 0.4, ReorderDelay: Duration(200 * time.Millisecond)},
		}
		lc := cfg.forLink(1, 2, base)
		out := make([]time.Duration, 0, 24)
		for i := 0; i < 24; i++ {
			at := lc.release(&Message{Instance: uint64(i % 3), Step: uint32(i), From: 1, To: 2, Bits: 8}, base)
			out = append(out, at.Sub(base))
		}
		return out
	}
	a, b := mk(99), mk(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: same seed scheduled %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
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
	tr := chaosChan(t, &ChaosConfig{
		Seed:    1,
		Default: LinkChaos{Jitter: Duration(3 * time.Millisecond), ReorderProb: 0.5, ReorderDelay: Duration(40 * time.Millisecond)},
	})
	l := mustDial(t, tr, 1, 2)
	const steps = 32
	for i := 0; i < steps; i++ {
		if err := l.Send(&Message{Instance: 1, Step: uint32(i), From: 1, To: 2, Bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	got := recvN(t, tr, 2, steps, 5*time.Second)
	seen := map[uint32]bool{}
	overtakes := 0
	for i, a := range got {
		if seen[a.m.Step] {
			t.Fatalf("step %d delivered twice", a.m.Step)
		}
		seen[a.m.Step] = true
		if i > 0 && a.m.Step < got[i-1].m.Step {
			overtakes++
		}
	}
	if overtakes == 0 {
		t.Error("no later step overtook an earlier one of the same instance")
	}
}

// TestFrameQueueOrder pins the link queue's heap: frames pop in (release
// time, send order) order with pushes and pops interleaved, and frames
// with equal release times, as on a polite link, pop in send order.
func TestFrameQueueOrder(t *testing.T) {
	for _, polite := range []bool{false, true} {
		var q frameQueue
		seen := map[uint64]bool{}
		pop := func() {
			f := q[0]
			if q.pop() != f.m {
				t.Fatal("pop did not return the queue's head")
			}
			for _, r := range q {
				if r.at.Before(f.at) || (r.at.Equal(f.at) && r.seq < f.seq) {
					t.Fatalf("polite=%v: popped seq %d before seq %d", polite, f.seq, r.seq)
				}
			}
			seen[f.seq] = true
		}
		for i := 0; i < 200; i++ {
			var at time.Time
			if !polite {
				at = time.Unix(0, 0).Add(time.Duration(i*7%5) * time.Millisecond)
			}
			q.push(queued{m: &Message{}, at: at, seq: uint64(i)})
			if i%3 == 2 {
				pop()
			}
		}
		for len(q) > 0 {
			pop()
		}
		if len(seen) != 200 {
			t.Fatalf("polite=%v: popped %d distinct frames, want 200", polite, len(seen))
		}
	}
}

// TestChaosPartitionStallsAndHeals pins partition semantics: frames sent
// into the window wait for the heal (never lost), the reverse direction
// stays healthy (asymmetry), and post-heal sends flow normally.
func TestChaosPartitionStallsAndHeals(t *testing.T) {
	heal := 400 * time.Millisecond
	tr := chaosChan(t, &ChaosConfig{
		Seed: 3,
		Partitions: []Partition{
			{From: []graph.NodeID{1}, To: []graph.NodeID{2}, Start: 0, Heal: Duration(heal)},
		},
	})
	lf, lr := mustDial(t, tr, 1, 2), mustDial(t, tr, 2, 1)
	start := time.Now()
	if err := lf.Send(&Message{Instance: 1, From: 1, To: 2, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if err := lr.Send(&Message{Instance: 1, From: 2, To: 1, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	recvN(t, tr, 1, 1, time.Second)
	if n := len(tr.inboxes[2]); n != 0 && time.Since(start) < heal/2 {
		t.Fatalf("partitioned frame delivered %v after send, before heal", time.Since(start))
	}
	if held := recvN(t, tr, 2, 1, 5*time.Second)[0].at.Sub(start); held < heal-20*time.Millisecond {
		t.Errorf("partitioned frame released %v after send, want >= %v", held, heal)
	}
	// The partition has healed; traffic flows promptly again.
	time.Sleep(50 * time.Millisecond)
	t2 := time.Now()
	if err := lf.Send(&Message{Instance: 1, From: 1, To: 2, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if lag := recvN(t, tr, 2, 1, time.Second)[0].at.Sub(t2); lag > 200*time.Millisecond {
		t.Errorf("post-heal frame took %v", lag)
	}
}

// TestChaosSlowLinkSerializes pins RateBits as serialization: frames
// queue behind each other on the slow link instead of overlapping.
func TestChaosSlowLinkSerializes(t *testing.T) {
	tr := chaosChan(t, &ChaosConfig{
		Seed:  5,
		Links: []LinkRule{{From: 1, To: 2, LinkChaos: LinkChaos{RateBits: 100_000}}},
	})
	l := mustDial(t, tr, 1, 2)
	start := time.Now()
	for i := 0; i < 3; i++ {
		// 10_000 bits at 100_000 bits/s = 100ms on the wire each.
		if err := l.Send(&Message{Instance: 1, Step: uint32(i), From: 1, To: 2, Bits: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	if el := recvN(t, tr, 2, 3, 5*time.Second)[2].at.Sub(start); el < 250*time.Millisecond {
		t.Errorf("three 100ms frames cleared the slow link in %v — not serialized", el)
	}
	// Empty step frames are free: they ride the propagation path only.
	t3 := time.Now()
	if err := l.Send(&Message{Instance: 1, Step: 3, From: 1, To: 2, Packets: []Packet{}}); err != nil {
		t.Fatal(err)
	}
	if lag := recvN(t, tr, 2, 1, time.Second)[0].at.Sub(t3); lag > 100*time.Millisecond {
		t.Errorf("free empty frame delayed %v by the throttle", lag)
	}
}

// TestChaosLinkRuleScoping checks per-link overrides: a scoped rule wins
// over the default, and untouched links bypass chaos entirely.
func TestChaosLinkRuleScoping(t *testing.T) {
	tr := chaosChan(t, &ChaosConfig{
		Seed:  9,
		Links: []LinkRule{{From: 1, To: 2, LinkChaos: LinkChaos{Latency: Duration(150 * time.Millisecond)}}},
	})
	ls, lf := mustDial(t, tr, 1, 2), mustDial(t, tr, 2, 1)
	if ls.(*link).chaos == nil {
		t.Fatal("matched link carries no chaos")
	}
	if !lf.(*link).direct {
		t.Fatal("unmatched link should bypass chaos (zero profile, no partitions)")
	}
	start := time.Now()
	if err := ls.Send(&Message{Instance: 1, From: 1, To: 2, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	if el := recvN(t, tr, 2, 1, time.Second)[0].at.Sub(start); el < 120*time.Millisecond {
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
