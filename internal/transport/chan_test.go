package transport

import (
	"sync"
	"testing"
	"time"

	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/topo"
)

// TestChanPacingMatchesSimAccounting drives identical per-link loads
// through (a) the sim PhaseStats accounting and (b) the paced transport on
// the Fig. 1(a) graph, and checks that real elapsed time matches the
// model's cut-through phase time within tolerance.
func TestChanPacingMatchesSimAccounting(t *testing.T) {
	g := topo.Fig1a()
	const timeUnit = 2 * time.Millisecond
	const perLinkUnits = 40 // model time units of traffic per link
	const frames = 8

	// The model accounting for the load we are about to replay.
	links := sim.NewLinks(g)
	ps := sim.NewPhaseStats("pacing", links, 1)
	perLink := map[[2]graph.NodeID]int64{}
	type load struct {
		from, to graph.NodeID
		bits     int64
	}
	var loads []load
	for _, e := range g.Edges() {
		per := e.Cap * perLinkUnits / frames
		for i := 0; i < frames; i++ {
			loads = append(loads, load{e.From, e.To, per})
		}
		link, _ := links.EdgeIndex(e.From, e.To)
		for i := 0; i < frames; i++ {
			ps.Charge(0, link, per)
			perLink[[2]graph.NodeID{e.From, e.To}] += per
		}
	}
	wantUnits := ps.CutThroughTime()
	if wantUnits != perLinkUnits {
		t.Fatalf("load construction: cut-through %v units, want %v", wantUnits, perLinkUnits)
	}

	tr := NewChan(g, ChanOptions{TimeUnit: timeUnit})
	defer tr.Close()
	// Every node receives its frames; the replay ends at the last arrival.
	perNode := map[graph.NodeID]int{}
	for _, l := range loads {
		perNode[l.to]++
	}
	start := time.Now()
	for _, l := range loads {
		if err := mustDial(t, tr, l.from, l.to).Send(&Message{From: l.from, To: l.to, Bits: l.bits}); err != nil {
			t.Fatal(err)
		}
	}
	var elapsed time.Duration
	for v, n := range perNode {
		elapsed = max(elapsed, recvN(t, tr, v, n, 10*time.Second)[n-1].at.Sub(start))
	}
	tr.Close()

	want := time.Duration(wantUnits * float64(timeUnit))
	// The token bucket starts full (one time unit of burst per link) and
	// scheduling adds noise; accept a generous band around the model time.
	lo, hi := want*6/10, want*18/10
	if elapsed < lo || elapsed > hi {
		t.Errorf("paced replay took %v, model cut-through time is %v (accept [%v, %v])", elapsed, want, lo, hi)
	}

	// The transport's capacity accounting must agree with the model's.
	got := tr.LinkBits()
	for key, bits := range perLink {
		if got[key] != bits {
			t.Errorf("link %v: transport accounted %d bits, sim accounted %d", key, got[key], bits)
		}
	}
}

func TestChanPacingSerializesLink(t *testing.T) {
	g := graph.NewDirected()
	g.MustAddEdge(1, 2, 10) // 10 bits per time unit
	const timeUnit = time.Millisecond
	tr := NewChan(g, ChanOptions{TimeUnit: timeUnit})
	defer tr.Close()

	link := mustDial(t, tr, 1, 2)
	// Two concurrent senders share the one token bucket: 2 x 20 frames x
	// 10 bits = 400 bits => 40 time units minus the initial burst.
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				link.Send(&Message{From: 1, To: 2, Bits: 10})
			}
		}()
	}
	wg.Wait()
	elapsed := recvN(t, tr, 2, 40, 10*time.Second)[39].at.Sub(start)
	if min := 25 * timeUnit; elapsed < min {
		t.Errorf("concurrent senders' frames arrived in %v; shared token bucket should enforce >= %v", elapsed, min)
	}
}

// TestPacedSendDoesNotBlock: a sender's frame that overdraws its slow link
// waits in that link's queue, not in Send, so the sender's next frame to a
// fast link goes out at once and overtakes it.
func TestPacedSendDoesNotBlock(t *testing.T) {
	const timeUnit = 10 * time.Millisecond
	tr := NewChan(mustParse(t, "1 2 10\n1 3 1000"), ChanOptions{TimeUnit: timeUnit})
	defer tr.Close()
	slow, fast := mustDial(t, tr, 1, 2), mustDial(t, tr, 1, 3)
	// 110 bits against a 10-bit bucket: 10 time units of drain.
	const drain = 10 * timeUnit
	start := time.Now()
	if err := slow.Send(&Message{From: 1, To: 2, Bits: 110}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > drain/10 {
		t.Errorf("Send on an overdrawn link took %v; its drain time is %v", el, drain)
	}
	if err := fast.Send(&Message{From: 1, To: 3, Bits: 8}); err != nil {
		t.Fatal(err)
	}
	recvN(t, tr, 3, 1, time.Second)
	if n := len(tr.inboxes[2]); n != 0 {
		t.Error("the fast link's frame arrived after the slow link's, which it was sent behind")
	}
	recvN(t, tr, 2, 1, time.Second)
}

// TestPacedSendRecvAllocFree pins the queue path at zero allocations per
// frame: one reusable timer per link and a typed heap, nothing boxed.
func TestPacedSendRecvAllocFree(t *testing.T) {
	tr := NewChan(mustParse(t, "1 2 1000000"), ChanOptions{TimeUnit: time.Millisecond})
	defer tr.Close()
	l := mustDial(t, tr, 1, 2)
	m := &Message{From: 1, To: 2, Bits: 8}
	if avg := testing.AllocsPerRun(200, func() {
		if err := l.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Recv(2); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("paced Send -> Recv allocates %.1f/frame, want 0", avg)
	}
}
