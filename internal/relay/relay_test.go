package relay

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nab/internal/graph"
	"nab/internal/sim"
)

func completeBi(n int, c int64) *graph.Directed {
	g := graph.NewDirected()
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i != j {
				g.MustAddEdge(graph.NodeID(i), graph.NodeID(j), c)
			}
		}
	}
	return g
}

func TestNewTableValidation(t *testing.T) {
	g := completeBi(4, 1)
	if _, err := NewTable(g, 0); err == nil {
		t.Error("k=0: expected error")
	}
	// K4 has connectivity 3; k=4 must fail.
	if _, err := NewTable(g, 4); err == nil {
		t.Error("k above connectivity: expected error")
	}
	tab, err := NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.K() != 3 {
		t.Errorf("K = %d", tab.K())
	}
	if tab.Rounds() < 1 || tab.Rounds() > 3 {
		t.Errorf("Rounds = %d", tab.Rounds())
	}
	if p := tab.Paths(1, 2); len(p) != 3 {
		t.Errorf("Paths(1,2) = %v", p)
	}
	if p := tab.Paths(1, 1); p != nil {
		t.Error("self path should be nil")
	}
}

// TestTableMatchesNodeDisjointPaths: the positional table answers every
// ordered pair with that pair's own NodeDisjointPaths, and a pair with a
// node outside the graph with nil. (graph's TestPathNetMatchesPerPairNets
// pins the shared flow net against a net built per pair.)
func TestTableMatchesNodeDisjointPaths(t *testing.T) {
	ring := graph.NewDirected()
	for i := 1; i <= 6; i++ {
		for _, d := range []int{1, 2} {
			j := graph.NodeID((i-1+d)%6 + 1)
			ring.MustAddEdge(graph.NodeID(i), j, 1)
			ring.MustAddEdge(j, graph.NodeID(i), 1)
		}
	}
	for _, tc := range []struct {
		g *graph.Directed
		k int
	}{{completeBi(7, 1), 5}, {completeBi(4, 2), 3}, {ring, 3}} {
		tab, err := NewTable(tc.g, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tc.g.Nodes() {
			for _, d := range tc.g.Nodes() {
				want, _ := tc.g.NodeDisjointPaths(s, d, tc.k)
				if got := tab.Paths(s, d); !reflect.DeepEqual(got, want) {
					t.Errorf("n = %d: Paths(%d, %d) = %v, want %v", tc.g.NumNodes(), s, d, got, want)
				}
			}
			if p := tab.Paths(s, 99); p != nil {
				t.Errorf("Paths(%d, 99) = %v, want nil", s, p)
			}
			if p := tab.Paths(0, s); p != nil {
				t.Errorf("Paths(0, %d) = %v, want nil", s, p)
			}
		}
	}
}

// TestTableIndexStrangers: Index answers a node's position through the
// table indexed by id, or by binary search when the ids are too sparse for
// one, and reads every other id, negative or past the last node, as a
// stranger (-1, and nil paths).
func TestTableIndexStrangers(t *testing.T) {
	sparse := graph.NewDirected()
	ids := []graph.NodeID{-7, 3, 1 << 20, 1 << 40}
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				sparse.MustAddEdge(a, b, 1)
			}
		}
	}
	for _, g := range []*graph.Directed{completeBi(7, 1), sparse} {
		tab, err := NewTable(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		for i, v := range nodes {
			if got := tab.Index(v); got != i {
				t.Errorf("Index(%d) = %d, want %d", v, got, i)
			}
		}
		for _, v := range []graph.NodeID{math.MinInt, -8, -1, 0, 8, 1<<20 + 1, 1<<40 + 1, math.MaxInt} {
			if g.HasNode(v) {
				continue
			}
			if got := tab.Index(v); got != -1 {
				t.Errorf("%d nodes: Index(%d) = %d, want -1", len(nodes), v, got)
			}
			if p := tab.Paths(nodes[0], v); p != nil {
				t.Errorf("%d nodes: Paths(%d, %d) = %v, want nil", len(nodes), nodes[0], v, p)
			}
			if p := tab.Paths(v, nodes[0]); p != nil {
				t.Errorf("%d nodes: Paths(%d, %d) = %v, want nil", len(nodes), v, nodes[0], p)
			}
		}
	}
}

// BenchmarkNewTable times the relay table of K7 with 2f+1 = 5 paths per
// pair, which every Open builds.
func BenchmarkNewTable(b *testing.B) {
	g := completeBi(7, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTable(g, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// runRelay executes one reliable send from src to every other node over the
// engine, with faulty nodes running the given corrupting process.
func runRelay(t *testing.T, g *graph.Directed, tab *Table, src graph.NodeID, payload []byte, faulty map[graph.NodeID]sim.Process) map[graph.NodeID]*Router {
	t.Helper()
	e := sim.New(g)
	routers := map[graph.NodeID]*Router{}
	for _, v := range g.Nodes() {
		if fp, bad := faulty[v]; bad {
			if err := e.SetProcess(v, fp); err != nil {
				t.Fatal(err)
			}
			continue
		}
		v := v
		r := NewRouter(v, tab)
		routers[v] = r
		if err := e.SetProcess(v, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
			out := r.HandleAll(inbox)
			if v == src && round == 0 {
				for _, d := range g.Nodes() {
					if d != v {
						out = append(out, r.Send(d, "m1", payload)...)
					}
				}
			}
			return out
		})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunPhase("relay", tab.Rounds()+1); err != nil {
		t.Fatal(err)
	}
	return routers
}

func TestReliableDeliveryNoFaults(t *testing.T) {
	g := completeBi(5, 2)
	tab, err := NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("agreement")
	routers := runRelay(t, g, tab, 1, payload, nil)
	for v, r := range routers {
		if v == 1 {
			continue
		}
		got, ok := r.Majority(1, "m1")
		if !ok || string(got) != string(payload) {
			t.Errorf("node %d: got %q ok=%v", v, got, ok)
		}
	}
}

// corruptingRelay forwards packets but rewrites payloads.
func corruptingRelay(self graph.NodeID, tab *Table, garbage []byte) sim.Process {
	r := NewRouter(self, tab)
	return sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
		out := r.HandleAll(inbox)
		for i := range out {
			pkt := *out[i].Body.(*Packet) // a sent copy is immutable
			pkt.Payload = garbage
			out[i].Body = &pkt
			out[i].Bits = int64(len(garbage)) * 8
		}
		return out
	})
}

// silentProcess drops everything.
func silentProcess() sim.Process { return sim.Silent }

func TestReliableDeliveryWithCorruptingFault(t *testing.T) {
	// n=5, f=1, k=3 paths. One faulty intermediate corrupts every copy it
	// relays; majority must still deliver the true payload.
	g := completeBi(5, 2)
	tab, err := NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("truth")
	for _, faultyNode := range []graph.NodeID{2, 3, 4, 5} {
		faulty := map[graph.NodeID]sim.Process{
			faultyNode: corruptingRelay(faultyNode, tab, []byte("lie!!")),
		}
		routers := runRelay(t, g, tab, 1, payload, faulty)
		for v, r := range routers {
			if v == 1 {
				continue
			}
			got, ok := r.Majority(1, "m1")
			if !ok || string(got) != string(payload) {
				t.Errorf("faulty=%d node %d: got %q ok=%v", faultyNode, v, got, ok)
			}
		}
	}
}

func TestReliableDeliveryWithSilentFault(t *testing.T) {
	g := completeBi(5, 2)
	tab, err := NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("x")
	faulty := map[graph.NodeID]sim.Process{3: silentProcess()}
	routers := runRelay(t, g, tab, 1, payload, faulty)
	for v, r := range routers {
		if v == 1 {
			continue
		}
		got, ok := r.Majority(1, "m1")
		if !ok || string(got) != string(payload) {
			t.Errorf("node %d: got %q ok=%v", v, got, ok)
		}
	}
}

func TestForgedPacketsDropped(t *testing.T) {
	// A faulty node fabricates packets claiming paths it is not on; honest
	// routers must not accept or forward them.
	g := completeBi(5, 2)
	tab, err := NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Find a path from 1 to 5 that node 2 is NOT on.
	var victim Packet
	found := false
	for idx, p := range tab.Paths(1, 5) {
		onPath := false
		for _, v := range p {
			if v == 2 {
				onPath = true
			}
		}
		if !onPath && len(p) > 2 {
			victim = Packet{Origin: 1, Dest: 5, PathIdx: idx, Hop: len(p) - 1, MsgID: "m1", Payload: []byte("forged")}
			found = true
			break
		}
	}
	if !found {
		// All multi-hop paths include 2 (possible on tiny graphs): fabricate
		// with a wrong hop instead.
		victim = Packet{Origin: 1, Dest: 5, PathIdx: 0, Hop: 99, MsgID: "m1", Payload: []byte("forged")}
	}
	e := sim.New(g)
	r5 := NewRouter(5, tab)
	if err := e.SetProcess(5, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
		return r5.HandleAll(inbox)
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.SetProcess(2, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
		if round == 0 {
			return []sim.Message{{From: 2, To: 5, Bits: 48, Body: &victim}}
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPhase("attack", 3); err != nil {
		t.Fatal(err)
	}
	if got, ok := r5.Majority(1, "m1"); ok {
		t.Errorf("forged packet accepted: %q", got)
	}
}

func TestMajorityRequiresQuorum(t *testing.T) {
	g := completeBi(5, 1)
	tab, err := NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(5, tab)
	// No copies at all: not ok.
	if _, ok := r.Majority(1, "nothing"); ok {
		t.Error("majority with zero copies")
	}
}

func TestHandleIgnoresGarbage(t *testing.T) {
	g := completeBi(4, 1)
	tab, err := NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(2, tab)
	cases := []sim.Message{
		{From: 1, To: 2, Bits: 8, Body: "not a packet"},
		{From: 1, To: 2, Bits: 8, Body: Packet{Origin: 1, Dest: 3, PathIdx: 0, Hop: 1}}, // a value, not a path copy
		{From: 1, To: 2, Bits: 8, Body: (*Packet)(nil)},
		{From: 1, To: 2, Bits: 8, Body: &Packet{Origin: 9, Dest: 2, PathIdx: 0, Hop: 1}},
		{From: 1, To: 2, Bits: 8, Body: &Packet{Origin: 1, Dest: 2, PathIdx: 99, Hop: 1}},
		{From: 1, To: 2, Bits: 8, Body: &Packet{Origin: 1, Dest: 2, PathIdx: 0, Hop: -1}},
	}
	for i, m := range cases {
		if fwd := r.HandleAll([]sim.Message{m}); fwd != nil {
			t.Errorf("case %d: garbage produced forwards %v", i, fwd)
		}
	}
	if _, ok := r.Majority(9, ""); ok {
		t.Error("garbage recorded a copy")
	}
}

func TestAllPairsSimultaneous(t *testing.T) {
	// Every node reliably sends a distinct value to every other node in one
	// phase; all deliveries must succeed with a corrupting fault present.
	g := completeBi(6, 2)
	tab, err := NewTable(g, 3) // f=1 -> 2f+1=3
	if err != nil {
		t.Fatal(err)
	}
	const faultyNode = graph.NodeID(4)
	e := sim.New(g)
	routers := map[graph.NodeID]*Router{}
	for _, v := range g.Nodes() {
		v := v
		if v == faultyNode {
			if err := e.SetProcess(v, corruptingRelay(v, tab, []byte("evil"))); err != nil {
				t.Fatal(err)
			}
			continue
		}
		r := NewRouter(v, tab)
		routers[v] = r
		if err := e.SetProcess(v, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
			out := r.HandleAll(inbox)
			if round == 0 {
				for _, d := range g.Nodes() {
					if d != v {
						out = append(out, r.Send(d, "pairwise", []byte(fmt.Sprintf("from-%d", v)))...)
					}
				}
			}
			return out
		})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunPhase("all-pairs", tab.Rounds()+1); err != nil {
		t.Fatal(err)
	}
	for d, r := range routers {
		for _, s := range g.Nodes() {
			if s == d || s == faultyNode {
				continue
			}
			got, ok := r.Majority(s, "pairwise")
			want := fmt.Sprintf("from-%d", s)
			if !ok || string(got) != want {
				t.Errorf("delivery %d->%d: got %q ok=%v", s, d, got, ok)
			}
		}
	}
}

func BenchmarkRelayPhase(b *testing.B) {
	g := completeBi(7, 2)
	tab, err := NewTable(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("benchmark-payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New(g)
		routers := map[graph.NodeID]*Router{}
		for _, v := range g.Nodes() {
			v := v
			r := NewRouter(v, tab)
			routers[v] = r
			if err := e.SetProcess(v, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
				out := r.HandleAll(inbox)
				if v == 1 && round == 0 {
					for _, d := range g.Nodes() {
						if d != v {
							out = append(out, r.Send(d, "b", payload)...)
						}
					}
				}
				return out
			})); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := e.RunPhase("bench", tab.Rounds()+1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMajorityPayloadEqualToOldSentinel is the regression test for the
// sentinel collision: Majority used to tally absent copies under a magic
// string in the same table as real payloads, so a message whose bytes
// equalled that string had its three intact copies merged with the two
// missing ones and was reported as undelivered. Absent copies are no
// longer a vote, so no payload is special (baseline.RunFlood relays caller
// bytes verbatim and could hit this).
func TestMajorityPayloadEqualToOldSentinel(t *testing.T) {
	g := completeBi(7, 2)
	tab, err := NewTable(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("\x00relay:missing-copy\x00")
	faulty := map[graph.NodeID]sim.Process{2: silentProcess(), 3: silentProcess()}
	routers := runRelay(t, g, tab, 1, payload, faulty)
	for v, r := range routers {
		if v == 1 {
			continue
		}
		got, ok := r.Majority(1, "m1")
		if !ok || string(got) != string(payload) {
			t.Errorf("node %d: got %q ok=%v, want the payload with a strict majority", v, got, ok)
		}
	}
}

// TestMajorityCountsAgainstAllPaths pins the denominator: two agreeing
// copies out of k = 5 are not a majority even when they are all that
// arrived, and an empty payload is a value, not an absence.
func TestMajorityCountsAgainstAllPaths(t *testing.T) {
	g := completeBi(7, 2)
	tab, err := NewTable(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(r *Router, msgID string, idx int, payload []byte) {
		path := tab.Paths(1, 7)[idx]
		hop := len(path) - 1
		r.HandleAll([]sim.Message{{From: path[hop-1], To: 7, Body: &Packet{
			Origin: 1, Dest: 7, PathIdx: idx, Hop: hop, MsgID: msgID, Payload: payload,
		}}})
	}
	r := NewRouter(7, tab)
	deliver(r, "two", 0, []byte("v"))
	deliver(r, "two", 1, []byte("v"))
	if got, ok := r.Majority(1, "two"); ok {
		t.Errorf("2 of 5 copies accepted as majority: %q", got)
	}
	deliver(r, "split", 0, []byte("a"))
	deliver(r, "split", 1, []byte("b"))
	deliver(r, "split", 2, []byte("a"))
	deliver(r, "split", 3, []byte("b"))
	deliver(r, "split", 4, []byte("c"))
	if got, ok := r.Majority(1, "split"); ok {
		t.Errorf("2-2-1 split accepted as majority: %q", got)
	}
	for idx := 0; idx < 3; idx++ {
		deliver(r, "empty", idx, nil)
	}
	if got, ok := r.Majority(1, "empty"); !ok || len(got) != 0 {
		t.Errorf("three empty copies of five: got %q ok=%v, want empty payload with a majority", got, ok)
	}
	deliver(r, "first", 0, []byte("x"))
	deliver(r, "first", 0, []byte("y")) // a second copy on one path is ignored
	deliver(r, "first", 1, []byte("x"))
	deliver(r, "first", 2, []byte("x"))
	if got, ok := r.Majority(1, "first"); !ok || string(got) != "x" {
		t.Errorf("first copy per path should win: got %q ok=%v", got, ok)
	}
}
