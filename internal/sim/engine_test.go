package sim

import (
	"sync"
	"testing"

	"nab/internal/graph"
)

func lineGraph(n int, c int64) *graph.Directed {
	g := graph.NewDirected()
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), c)
	}
	return g
}

func TestSetProcessValidation(t *testing.T) {
	e := New(lineGraph(3, 1))
	if err := e.SetProcess(99, Silent); err == nil {
		t.Error("missing node: expected error")
	}
	if err := e.SetProcess(1, nil); err == nil {
		t.Error("nil process: expected error")
	}
	if err := e.SetProcess(1, Silent); err != nil {
		t.Errorf("valid: %v", err)
	}
}

func TestRunPhaseValidation(t *testing.T) {
	e := New(lineGraph(2, 1))
	if _, err := e.RunPhase("p", 0); err == nil {
		t.Error("rounds=0: expected error")
	}
}

func TestMessageFlowAndTiming(t *testing.T) {
	// 1 -> 2 -> 3 relay of an 8-bit message over capacity-2 links.
	g := lineGraph(3, 2)
	e := New(g)
	var got []Message
	var mu sync.Mutex
	if err := e.SetProcess(1, StepFunc(func(round int, inbox []Message) []Message {
		if round == 0 {
			return []Message{{From: 1, To: 2, Bits: 8, Body: "hello"}}
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.SetProcess(2, StepFunc(func(round int, inbox []Message) []Message {
		var out []Message
		for _, m := range inbox {
			out = append(out, Message{From: 2, To: 3, Bits: m.Bits, Body: m.Body})
		}
		return out
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.SetProcess(3, StepFunc(func(round int, inbox []Message) []Message {
		mu.Lock()
		got = append(got, inbox...)
		mu.Unlock()
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	ps, err := e.RunPhase("relay", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Body != "hello" {
		t.Fatalf("node 3 received %v", got)
	}
	// Each link carried 8 bits at capacity 2 -> cut-through 4 time units.
	if ct := ps.CutThroughTime(); ct != 4 {
		t.Errorf("cut-through = %v, want 4", ct)
	}
	// Rounds sequential: round 0 charges link (1,2) 8/2=4; round 1 charges
	// (2,3) 4; round 2 nothing. Store-and-forward = 8.
	if sf := ps.StoreForwardTime(); sf != 8 {
		t.Errorf("store-and-forward = %v, want 8", sf)
	}
	if ps.TotalBits() != 16 {
		t.Errorf("total bits = %d, want 16", ps.TotalBits())
	}
	if e.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", e.Dropped())
	}
}

func TestPhysicsEnforcement(t *testing.T) {
	g := lineGraph(3, 1) // edges 1->2, 2->3 only
	e := New(g)
	if err := e.SetProcess(1, StepFunc(func(round int, inbox []Message) []Message {
		if round != 0 {
			return nil
		}
		return []Message{
			{From: 1, To: 3, Bits: 1},  // no such link
			{From: 2, To: 3, Bits: 1},  // forged sender
			{From: 1, To: 2, Bits: -1}, // negative bits
			{From: 1, To: 2, Bits: 1},  // legitimate
		}
	})); err != nil {
		t.Fatal(err)
	}
	ps, err := e.RunPhase("p", 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", e.Dropped())
	}
	if ps.TotalBits() != 1 {
		t.Errorf("total bits = %d, want 1", ps.TotalBits())
	}
}

func TestDeterministicInboxOrder(t *testing.T) {
	// Nodes 1, 2, 3 all send to 4; inbox must arrive sorted by sender
	// regardless of goroutine scheduling. Run repeatedly to catch races.
	g := graph.NewDirected()
	g.MustAddEdge(1, 4, 1)
	g.MustAddEdge(2, 4, 1)
	g.MustAddEdge(3, 4, 1)
	for trial := 0; trial < 20; trial++ {
		e := New(g)
		for _, v := range []graph.NodeID{1, 2, 3} {
			v := v
			if err := e.SetProcess(v, StepFunc(func(round int, inbox []Message) []Message {
				if round == 0 {
					return []Message{{From: v, To: 4, Bits: 1, Body: int(v)}}
				}
				return nil
			})); err != nil {
				t.Fatal(err)
			}
		}
		var order []int
		var mu sync.Mutex
		if err := e.SetProcess(4, StepFunc(func(round int, inbox []Message) []Message {
			mu.Lock()
			for _, m := range inbox {
				order = append(order, m.Body.(int))
			}
			mu.Unlock()
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunPhase("p", 2); err != nil {
			t.Fatal(err)
		}
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("trial %d: inbox order %v", trial, order)
		}
	}
}

func TestPendingCrossesPhases(t *testing.T) {
	g := lineGraph(2, 1)
	e := New(g)
	if err := e.SetProcess(1, StepFunc(func(round int, inbox []Message) []Message {
		return []Message{{From: 1, To: 2, Bits: 1, Body: round}}
	})); err != nil {
		t.Fatal(err)
	}
	var got []int
	var mu sync.Mutex
	if err := e.SetProcess(2, StepFunc(func(round int, inbox []Message) []Message {
		mu.Lock()
		for _, m := range inbox {
			got = append(got, m.Body.(int))
		}
		mu.Unlock()
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPhase("a", 1); err != nil {
		t.Fatal(err)
	}
	// Message from phase a round 0 is still pending; delivered in phase b.
	if _, err := e.RunPhase("b", 1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("cross-phase delivery: %v", got)
	}
}

func TestTranscriptRecording(t *testing.T) {
	g := lineGraph(2, 1)
	e := New(g)
	e.SetRecording(true)
	if err := e.SetProcess(1, StepFunc(func(round int, inbox []Message) []Message {
		if round == 0 {
			return []Message{{From: 1, To: 2, Bits: 3}}
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPhase("x", 2); err != nil {
		t.Fatal(err)
	}
	recs := e.Records()
	if len(recs) != 1 || recs[0].Phase != "x" || recs[0].Round != 0 || recs[0].Msg.Bits != 3 {
		t.Fatalf("records = %+v", recs)
	}
	// Recording is off by default.
	e2 := New(g)
	if err := e2.SetProcess(1, StepFunc(func(round int, inbox []Message) []Message {
		return []Message{{From: 1, To: 2, Bits: 1}}
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.RunPhase("x", 1); err != nil {
		t.Fatal(err)
	}
	if len(e2.Records()) != 0 {
		t.Error("recording disabled but records present")
	}
}

func TestGraphIsolation(t *testing.T) {
	g := lineGraph(2, 1)
	e := New(g)
	g.MustAddEdge(2, 1, 5) // mutate original after engine construction
	if e.Graph().HasEdge(2, 1) {
		t.Error("engine shares graph storage with caller")
	}
	eg := e.Graph()
	eg.MustAddEdge(2, 1, 5)
	if e.Graph().HasEdge(2, 1) {
		t.Error("Graph() exposes internal storage")
	}
}

func TestByzantineBodyCorruption(t *testing.T) {
	// A Byzantine relay corrupts payloads but cannot touch the direct link:
	// node 3 receives the true value from 1 directly and the corrupted one
	// via 2.
	g := graph.NewDirected()
	g.MustAddEdge(1, 2, 8)
	g.MustAddEdge(1, 3, 8)
	g.MustAddEdge(2, 3, 8)
	e := New(g)
	if err := e.SetProcess(1, StepFunc(func(round int, inbox []Message) []Message {
		if round == 0 {
			return []Message{
				{From: 1, To: 2, Bits: 8, Body: byte(42)},
				{From: 1, To: 3, Bits: 8, Body: byte(42)},
			}
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.SetProcess(2, StepFunc(func(round int, inbox []Message) []Message {
		var out []Message
		for range inbox {
			out = append(out, Message{From: 2, To: 3, Bits: 8, Body: byte(13)}) // lie
		}
		return out
	})); err != nil {
		t.Fatal(err)
	}
	direct := map[graph.NodeID]byte{}
	var mu sync.Mutex
	if err := e.SetProcess(3, StepFunc(func(round int, inbox []Message) []Message {
		mu.Lock()
		for _, m := range inbox {
			direct[m.From] = m.Body.(byte)
		}
		mu.Unlock()
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPhase("p", 3); err != nil {
		t.Fatal(err)
	}
	if direct[1] != 42 {
		t.Errorf("direct copy corrupted: %d", direct[1])
	}
	if direct[2] != 13 {
		t.Errorf("relay copy = %d, want the adversary's 13", direct[2])
	}
}

func BenchmarkRunPhase(b *testing.B) {
	g := lineGraph(10, 4)
	e := New(g)
	for i := 1; i < 10; i++ {
		v := graph.NodeID(i)
		if err := e.SetProcess(v, StepFunc(func(round int, inbox []Message) []Message {
			var out []Message
			if v == 1 && round == 0 {
				out = append(out, Message{From: 1, To: 2, Bits: 0, Body: "x"})
			}
			for _, m := range inbox {
				out = append(out, Message{From: v, To: v + 1, Bits: m.Bits, Body: m.Body})
			}
			return out
		})); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunPhase("bench", 10); err != nil {
			b.Fatal(err)
		}
	}
}
