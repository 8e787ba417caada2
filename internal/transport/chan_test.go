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
	ps := sim.NewPhaseStats("pacing", g, 1)
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
		for i := 0; i < frames; i++ {
			ps.Charge(0, e.From, e.To, per)
		}
	}
	wantUnits := ps.CutThroughTime()
	if wantUnits != perLinkUnits {
		t.Fatalf("load construction: cut-through %v units, want %v", wantUnits, perLinkUnits)
	}

	tr := NewChan(g, ChanOptions{TimeUnit: timeUnit})
	defer tr.Close()
	// Drain all inboxes so senders never block on delivery.
	var drain sync.WaitGroup
	for _, v := range g.Nodes() {
		drain.Add(1)
		go func(v graph.NodeID) {
			defer drain.Done()
			for {
				if _, err := tr.Recv(v); err != nil {
					return
				}
			}
		}(v)
	}

	byLink := map[[2]graph.NodeID][]load{}
	for _, l := range loads {
		key := [2]graph.NodeID{l.from, l.to}
		byLink[key] = append(byLink[key], l)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for key, ll := range byLink {
		link, err := tr.Dial(key[0], key[1])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(link Link, ll []load) {
			defer wg.Done()
			for _, l := range ll {
				link.Send(&Message{From: l.from, To: l.to, Bits: l.bits})
			}
		}(link, ll)
	}
	wg.Wait()
	elapsed := time.Since(start)
	tr.Close()
	drain.Wait()

	want := time.Duration(wantUnits * float64(timeUnit))
	// The token bucket starts full (one time unit of burst per link) and
	// scheduling adds noise; accept a generous band around the model time.
	lo, hi := want*6/10, want*18/10
	if elapsed < lo || elapsed > hi {
		t.Errorf("paced replay took %v, model cut-through time is %v (accept [%v, %v])", elapsed, want, lo, hi)
	}

	// The transport's capacity accounting must agree with the model's.
	got := tr.LinkBits()
	for key, bits := range ps.BitsPerLink {
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

	go func() {
		for {
			if _, err := tr.Recv(2); err != nil {
				return
			}
		}
	}()
	link, err := tr.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
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
	elapsed := time.Since(start)
	if min := 25 * timeUnit; elapsed < min {
		t.Errorf("concurrent senders finished in %v; shared token bucket should enforce >= %v", elapsed, min)
	}
}
