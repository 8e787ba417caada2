package bb

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"nab/internal/graph"
	"nab/internal/relay"
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

// runEIG executes a full simultaneous EIG over the graph. values maps each
// node to the value it broadcasts as general; byz maps faulty nodes to
// their process factory. Returns the honest nodes' EIG states.
func runEIG(t *testing.T, g *graph.Directed, f int, tol int, values map[graph.NodeID][]byte, byz map[graph.NodeID]func(*relay.Table) sim.Process) map[graph.NodeID]*Node {
	t.Helper()
	tab, err := relay.NewTable(g, 2*f+1)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(g)
	nodes := map[graph.NodeID]*Node{}
	participants := g.Nodes()
	for _, v := range participants {
		if mk, bad := byz[v]; bad {
			if err := e.SetProcess(v, mk(tab)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		router := relay.NewRouter(v, tab)
		nd, err := NewNode(v, participants, tol, router, values[v])
		if err != nil {
			t.Fatal(err)
		}
		nodes[v] = nd
		if err := e.SetProcess(v, nd); err != nil {
			t.Fatal(err)
		}
	}
	var rounds int
	for _, nd := range nodes {
		rounds = nd.Rounds()
		break
	}
	if _, err := e.RunPhase("eig", rounds); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		nd.Finish()
	}
	return nodes
}

func TestNewNodeValidation(t *testing.T) {
	g := completeBi(4, 1)
	tab, err := relay.NewTable(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := relay.NewRouter(1, tab)
	parts := g.Nodes()
	if _, err := NewNode(1, parts, -1, r, nil); err == nil {
		t.Error("negative t: expected error")
	}
	if _, err := NewNode(1, parts, 2, r, nil); err == nil {
		t.Error("4 participants with t=2: expected error")
	}
	if _, err := NewNode(99, parts, 1, r, nil); err == nil {
		t.Error("self not participant: expected error")
	}
	if _, err := NewNode(1, []graph.NodeID{1, 2, 3, 99}, 1, r, nil); err == nil {
		t.Error("participant outside the relay table: expected error")
	}
}

func TestAllHonestAgreement(t *testing.T) {
	g := completeBi(4, 2)
	values := map[graph.NodeID][]byte{
		1: []byte("alpha"), 2: []byte("beta"), 3: []byte("gamma"), 4: []byte("delta"),
	}
	nodes := runEIG(t, g, 1, 1, values, nil)
	for _, nd := range nodes {
		for g2, want := range values {
			got := nd.Decide(g2)
			if string(got) != string(want) {
				t.Errorf("node %d decides %q for general %d, want %q", nd.self, got, g2, want)
			}
		}
	}
	// Unknown generals decide nil.
	for _, nd := range nodes {
		for _, id := range []graph.NodeID{math.MinInt, -4, 0, 5, 99, 1 << 40, math.MaxInt} {
			if nd.Decide(id) != nil {
				t.Errorf("unknown general %d should decide nil", id)
			}
		}
		break
	}
}

// equivocatingGeneral sends different round-0 values to different peers and
// behaves honestly afterwards (worst case for validity of others).
func equivocatingGeneral(self graph.NodeID, participants []graph.NodeID, tol int) func(*relay.Table) sim.Process {
	return func(tab *relay.Table) sim.Process {
		router := relay.NewRouter(self, tab)
		nd, err := NewNode(self, participants, tol, router, []byte("X"))
		if err != nil {
			panic(err)
		}
		return sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
			out := nd.Step(round, inbox)
			if round == 0 {
				// Rewrite the round-0 payload per destination: half get "X",
				// half get "Y".
				for i := range out {
					sent, ok := out[i].Body.(*relay.Packet)
					if !ok || sent.MsgID != msgID(0) {
						continue
					}
					pkt := *sent // a sent copy is immutable: rewrite a new one
					if pkt.Dest%2 == 0 {
						msg, err := unmarshalRound(pkt.Payload)
						if err != nil {
							continue
						}
						for j := range msg.Vals {
							msg.Vals[j] = []byte("Y")
						}
						raw := marshalRound(msg)
						pkt.Payload = raw
						out[i].Body = &pkt
						out[i].Bits = int64(len(raw)) * 8
					}
				}
			}
			return out
		})
	}
}

func TestAgreementUnderEquivocatingGeneral(t *testing.T) {
	// n=4, f=1: the faulty general sends X to odd nodes and Y to even
	// nodes. All honest nodes must still agree on SOME common value for it.
	g := completeBi(4, 2)
	participants := g.Nodes()
	values := map[graph.NodeID][]byte{1: []byte("one"), 2: []byte("two"), 4: []byte("four")}
	byz := map[graph.NodeID]func(*relay.Table) sim.Process{
		3: equivocatingGeneral(3, participants, 1),
	}
	nodes := runEIG(t, g, 1, 1, values, byz)
	var agreed *string
	for _, nd := range nodes {
		got := string(nd.Decide(3))
		if agreed == nil {
			agreed = &got
		} else if got != *agreed {
			t.Fatalf("agreement violated: %q vs %q", got, *agreed)
		}
	}
	// Validity for honest generals must be unaffected.
	for _, nd := range nodes {
		for gen, want := range values {
			if got := nd.Decide(gen); string(got) != string(want) {
				t.Errorf("node %d decides %q for honest general %d, want %q", nd.self, got, gen, want)
			}
		}
	}
}

// lyingRelayer behaves honestly as general but lies in later rounds about
// what it heard from others.
func lyingRelayer(self graph.NodeID, participants []graph.NodeID, tol int) func(*relay.Table) sim.Process {
	return func(tab *relay.Table) sim.Process {
		router := relay.NewRouter(self, tab)
		nd, err := NewNode(self, participants, tol, router, []byte("honest-looking"))
		if err != nil {
			panic(err)
		}
		return sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
			out := nd.Step(round, inbox)
			for i := range out {
				sent, ok := out[i].Body.(*relay.Packet)
				if !ok || sent.MsgID == msgID(0) {
					continue
				}
				pkt := *sent // a sent copy is immutable: rewrite a new one
				msg, err := unmarshalRound(pkt.Payload)
				if err != nil {
					continue
				}
				for j := range msg.Vals {
					msg.Vals[j] = []byte("poison")
				}
				raw := marshalRound(msg)
				pkt.Payload = raw
				out[i].Body = &pkt
				out[i].Bits = int64(len(raw)) * 8
			}
			return out
		})
	}
}

func TestValidityUnderLyingRelayer(t *testing.T) {
	// Honest generals' values must survive a relayer that poisons every
	// second-round report.
	g := completeBi(4, 2)
	participants := g.Nodes()
	values := map[graph.NodeID][]byte{1: []byte("v1"), 3: []byte("v3"), 4: []byte("v4")}
	byz := map[graph.NodeID]func(*relay.Table) sim.Process{
		2: lyingRelayer(2, participants, 1),
	}
	nodes := runEIG(t, g, 1, 1, values, byz)
	for _, nd := range nodes {
		for gen, want := range values {
			if got := nd.Decide(gen); string(got) != string(want) {
				t.Errorf("node %d decides %q for general %d, want %q", nd.self, got, gen, want)
			}
		}
	}
}

func TestSilentGeneralAgreesOnDefault(t *testing.T) {
	g := completeBi(4, 2)
	values := map[graph.NodeID][]byte{1: []byte("a"), 2: []byte("b"), 3: []byte("c")}
	byz := map[graph.NodeID]func(*relay.Table) sim.Process{
		4: func(*relay.Table) sim.Process { return sim.Silent },
	}
	nodes := runEIG(t, g, 1, 1, values, byz)
	for _, nd := range nodes {
		if got := nd.Decide(4); got != nil {
			t.Errorf("node %d decides %q for silent general, want nil default", nd.self, got)
		}
	}
}

func TestSevenNodesTwoFaults(t *testing.T) {
	// n=7, f=2: equivocator + silent node simultaneously.
	g := completeBi(7, 2)
	participants := g.Nodes()
	values := map[graph.NodeID][]byte{}
	for _, v := range []graph.NodeID{1, 2, 4, 6, 7} {
		values[v] = []byte{byte('a' + v)}
	}
	byz := map[graph.NodeID]func(*relay.Table) sim.Process{
		3: equivocatingGeneral(3, participants, 2),
		5: func(*relay.Table) sim.Process { return sim.Silent },
	}
	nodes := runEIG(t, g, 2, 2, values, byz)
	// Agreement on both faulty generals, validity for honest ones.
	var d3, d5 *string
	for _, nd := range nodes {
		g3, g5 := string(nd.Decide(3)), string(nd.Decide(5))
		if d3 == nil {
			d3, d5 = &g3, &g5
		} else if g3 != *d3 || g5 != *d5 {
			t.Fatalf("agreement violated: node %d has (%q,%q) vs (%q,%q)", nd.self, g3, g5, *d3, *d5)
		}
		for gen, want := range values {
			if got := nd.Decide(gen); string(got) != string(want) {
				t.Errorf("node %d: general %d: got %q want %q", nd.self, gen, got, want)
			}
		}
	}
}

func TestToleranceZeroFastPath(t *testing.T) {
	// t=0 (all faults already identified elsewhere): single round.
	g := completeBi(3, 2)
	values := map[graph.NodeID][]byte{1: []byte("x"), 2: []byte("y"), 3: []byte("z")}
	nodes := runEIG(t, g, 0, 0, values, nil)
	for _, nd := range nodes {
		for gen, want := range values {
			if got := nd.Decide(gen); string(got) != string(want) {
				t.Errorf("node %d: general %d: got %q want %q", nd.self, gen, got, want)
			}
		}
	}
}

// k7Node builds node self of a K7 execution with t = 2, outside any
// engine, to be fed batches directly.
func k7Node(t *testing.T, self graph.NodeID) *Node {
	t.Helper()
	g := completeBi(7, 2)
	tab, err := relay.NewTable(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNode(self, g.Nodes(), 2, relay.NewRouter(self, tab), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestBatchRules files round-1 batches from node 2 at node 1. Only a batch
// of the right round with exactly one value per implied label and nothing
// after the last value files anything; any other is dropped whole.
func TestBatchRules(t *testing.T) {
	vals := [][]byte{{1}, {2}, {3}, {4}, {5}, {6}} // [1] [3] [4] [5] [6] [7]
	valid := marshalRound(roundMsg{K: 1, Vals: vals})
	cases := []struct {
		name  string
		batch []byte
		files bool
	}{
		{"valid", valid, true},
		{"wrong round", marshalRound(roundMsg{K: 2, Vals: vals}), false},
		{"round 0", marshalRound(roundMsg{K: 0, Vals: vals}), false},
		{"one value short", marshalRound(roundMsg{K: 1, Vals: vals[:5]}), false},
		{"one value extra", marshalRound(roundMsg{K: 1, Vals: append(vals[:6:6], []byte{7})}), false},
		{"trailing byte", append(valid[:len(valid):len(valid)], 0x80), false},
		{"value length past the end", append(valid[:len(valid)-2:len(valid)-2], 2, 6), false},
		{"empty", nil, false},
	}
	for _, c := range cases {
		nd := k7Node(t, 1)
		nd.storeRound(c.batch, 1, nd.labelAt(2))
		for i, v := range nd.slots {
			if v != nil && !c.files {
				t.Errorf("%s: filed %v under slot %d", c.name, v, i)
			}
		}
		if c.files {
			for j, id := range []graph.NodeID{1, 3, 4, 5, 6, 7} {
				if got := nd.slots[nd.labelAt(id, 2)]; !bytes.Equal(got, vals[j]) {
					t.Errorf("%s: [%d 2] holds %v, want %v", c.name, id, got, vals[j])
				}
			}
		}
	}
}

// TestEmptyValueDecidesLikeUnsent: a label its reporter never filled goes
// out as an empty value, which the receiver files; had the label not been
// sent at all, the receiver's slot would stay unfilled. Every decision,
// nil-ness included, must be the same either way.
func TestEmptyValueDecidesLikeUnsent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	decided := map[bool]int{}
	for trial := 0; trial < 100; trial++ {
		sent, unsent := k7Node(t, 1), k7Node(t, 1)
		for k := 0; k <= sent.t; k++ {
			for q := int32(1); q < 7; q++ {
				vals := make([][]byte, sent.lay.batchLen(k))
				for j := range vals {
					if v := rng.Intn(4); v > 0 {
						vals[j] = []byte{byte(v)}
					} else {
						vals[j] = []byte{}
					}
				}
				batch := marshalRound(roundMsg{K: uint64(k), Vals: vals})
				sent.storeRound(batch, k, q)
				unsent.storeRound(batch, k, q)
			}
		}
		for i, v := range unsent.slots {
			if v != nil && len(v) == 0 {
				unsent.slots[i] = nil
			}
		}
		for _, gen := range sent.participants {
			got, want := sent.Decide(gen), unsent.Decide(gen)
			if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("trial %d: general %d decides %#v with empty values, %#v with them unsent", trial, gen, got, want)
			}
			decided[got == nil]++
		}
	}
	if decided[true] == 0 || decided[false] == 0 {
		t.Fatalf("decisions %v: want both nil and non-nil outcomes", decided)
	}
}

func BenchmarkEIG7(b *testing.B) {
	g := completeBi(7, 2)
	tab, err := relay.NewTable(g, 5)
	if err != nil {
		b.Fatal(err)
	}
	participants := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New(g)
		var sample *Node
		for _, v := range participants {
			router := relay.NewRouter(v, tab)
			nd, err := NewNode(v, participants, 2, router, []byte{byte(v)})
			if err != nil {
				b.Fatal(err)
			}
			if sample == nil {
				sample = nd
			}
			if err := e.SetProcess(v, nd); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := e.RunPhase("eig", sample.Rounds()); err != nil {
			b.Fatal(err)
		}
	}
}
