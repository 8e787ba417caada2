package bb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nab/internal/graph"
	"nab/internal/relay"
	"nab/internal/sim"
)

// eigProc is what the differential test needs of either implementation.
type eigProc interface {
	sim.Process
	Finish()
	Decide(graph.NodeID) []byte
	Rounds() int
}

type eigCtor func(self graph.NodeID, participants []graph.NodeID, t int, router *relay.Router, value []byte) (eigProc, error)

func newTree(self graph.NodeID, participants []graph.NodeID, t int, router *relay.Router, value []byte) (eigProc, error) {
	return NewNode(self, participants, t, router, value)
}

func newRef(self graph.NodeID, participants []graph.NodeID, t int, router *relay.Router, value []byte) (eigProc, error) {
	return newRefNode(self, participants, t, router, value)
}

// tamper returns an altered copy of one report batch, drawing every choice
// from rng: truncations, bit flips, garbage, duplicated reports, forged
// labels, lies.
func tamper(payload []byte, rng *rand.Rand) []byte {
	// Payloads are shared between path copies: never edit in place.
	raw := append([]byte(nil), payload...)
	switch rng.Intn(7) {
	case 0: // truncate
		raw = raw[:rng.Intn(len(raw)+1)]
	case 1: // flip one bit
		if len(raw) > 0 {
			raw[rng.Intn(len(raw))] ^= 1 << rng.Intn(8)
		}
	case 2: // garbage, sometimes shaped like a huge count or length
		raw = make([]byte, rng.Intn(24))
		rng.Read(raw)
		if rng.Intn(3) == 0 {
			raw = binary.AppendVarint(binary.AppendVarint(nil, int64(rng.Intn(3))), 1<<40)
		}
	case 3: // duplicate reports, the copy carrying another value
		if msg, err := unmarshalRound(raw); err == nil && len(msg.Reports) > 0 {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				dup := msg.Reports[rng.Intn(len(msg.Reports))]
				dup.Val = []byte{byte(rng.Intn(4))}
				at := rng.Intn(len(msg.Reports) + 1)
				msg.Reports = append(msg.Reports[:at], append([]labelVal{dup}, msg.Reports[at:]...)...)
			}
			raw = marshalRound(msg)
		}
	case 4: // forge labels: strangers, negative and repeated ids, wrong lengths
		if msg, err := unmarshalRound(raw); err == nil {
			for j := range msg.Reports {
				if rng.Intn(2) == 0 {
					continue
				}
				path := append([]graph.NodeID(nil), msg.Reports[j].Path...)
				if len(path) == 0 { // already mangled by another relayer
					path = []graph.NodeID{0}
				}
				switch rng.Intn(6) {
				case 0:
					path[rng.Intn(len(path))] = graph.NodeID(90 + rng.Intn(20))
				case 1:
					path[rng.Intn(len(path))] = graph.NodeID(-1 - rng.Intn(3))
				case 2:
					path[rng.Intn(len(path))] = path[rng.Intn(len(path))]
				case 3:
					path = append(path, graph.NodeID(1+rng.Intn(12)))
				case 4:
					path = path[:len(path)-1]
				case 5:
					path[rng.Intn(len(path))] = graph.NodeID(1 + rng.Intn(12))
				}
				msg.Reports[j].Path = path
			}
			raw = marshalRound(msg)
		}
	case 5: // lie about values, now and then about the round too
		if msg, err := unmarshalRound(raw); err == nil {
			for j := range msg.Reports {
				if rng.Intn(2) == 0 {
					msg.Reports[j].Val = []byte{byte(rng.Intn(3))}
				}
			}
			msg.K += rng.Intn(5) / 4
			raw = marshalRound(msg)
		}
	case 6: // empty payload
		raw = raw[:0]
	}
	return raw
}

// byzantine wraps a node that follows the protocol and then tampers with
// what it emits, drawing every choice from rng, so two implementations
// that emit the same messages are tampered with identically. Its own batch
// to one destination is altered the same way on every path (so the lie
// wins the receiver's majority; different destinations hear different
// lies); a copy it forwards for someone else is altered on its own, and
// now and then sent twice.
func byzantine(inner sim.Process, rng *rand.Rand) sim.Process {
	type stream struct {
		dest  graph.NodeID
		msgID string
	}
	return sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
		out := inner.Step(round, inbox)
		own := map[stream][]byte{}
		var extra []sim.Message
		for i := range out {
			sent, ok := out[i].Body.(*relay.Packet)
			if !ok {
				continue
			}
			pkt := *sent // a sent copy is immutable: tamper with a new one
			if pkt.Origin == out[i].From {
				key := stream{pkt.Dest, pkt.MsgID}
				raw, seen := own[key]
				if !seen {
					raw = pkt.Payload
					if rng.Intn(3) > 0 {
						raw = tamper(raw, rng)
					}
					own[key] = raw
				}
				pkt.Payload = raw
			} else if rng.Intn(2) == 0 {
				pkt.Payload = tamper(pkt.Payload, rng)
				if rng.Intn(4) == 0 {
					second := out[i]
					alt := pkt
					alt.Payload = append(append([]byte(nil), pkt.Payload...), 0)
					second.Body, second.Bits = &alt, int64(len(alt.Payload))*8
					extra = append(extra, second)
				}
			}
			out[i].Body, out[i].Bits = &pkt, int64(len(pkt.Payload))*8
		}
		return append(out, extra...)
	})
}

// eigRun is everything observable about one execution.
type eigRun struct {
	decided map[graph.NodeID]map[graph.NodeID][]byte // honest node -> general -> value
	bits    int64
	records []sim.SentRecord
}

func runOracle(t *testing.T, g *graph.Directed, tab *relay.Table, tol int, values map[graph.NodeID][]byte, byz map[graph.NodeID]bool, seed int64, mk eigCtor) eigRun {
	t.Helper()
	e := sim.New(g)
	e.SetRecording(true)
	participants := g.Nodes()
	honest := map[graph.NodeID]eigProc{}
	rounds := 0
	for _, v := range participants {
		nd, err := mk(v, participants, tol, relay.NewRouter(v, tab), values[v])
		if err != nil {
			t.Fatal(err)
		}
		rounds = nd.Rounds()
		var proc sim.Process = nd
		if byz[v] {
			proc = byzantine(nd, rand.New(rand.NewSource(seed*1000+int64(v))))
		} else {
			honest[v] = nd
		}
		if err := e.SetProcess(v, proc); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := e.RunPhase("eig", rounds)
	if err != nil {
		t.Fatal(err)
	}
	run := eigRun{decided: map[graph.NodeID]map[graph.NodeID][]byte{}, bits: stats.TotalBits(), records: e.Records()}
	for v, nd := range honest {
		nd.Finish()
		run.decided[v] = map[graph.NodeID][]byte{}
		for _, q := range participants {
			run.decided[v][q] = nd.Decide(q)
		}
	}
	return run
}

// TestTreeMatchesReference runs the index-addressed tree and the map-keyed
// reference side by side under seeded Byzantine tampering and demands the
// same decisions (nil-ness included), the same charged bits and the same
// bytes in every message of the transcript. The rows with ten or more
// participants have ids whose decimal order ("10" < "2") differs from
// their numeric order, which is the order reports take inside a batch.
func TestTreeMatchesReference(t *testing.T) {
	rows := []struct{ n, f, tol int }{
		{4, 1, 1}, {5, 1, 1}, {7, 2, 2}, {7, 2, 1}, {10, 3, 2}, {12, 3, 1},
	}
	seeds := 40
	if testing.Short() {
		seeds = 6
	}
	for _, row := range rows {
		row := row
		t.Run(fmt.Sprintf("n%d_f%d_t%d", row.n, row.f, row.tol), func(t *testing.T) {
			t.Parallel()
			g := completeBi(row.n, 2)
			tab, err := relay.NewTable(g, 2*row.f+1)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				rng := rand.New(rand.NewSource(seed<<8 | int64(row.n)))
				values := map[graph.NodeID][]byte{}
				for _, v := range g.Nodes() {
					switch rng.Intn(5) {
					case 0: // nil: the passive decoder's value
					case 1:
						values[v] = []byte{}
					default:
						values[v] = make([]byte, 1+rng.Intn(3))
						rng.Read(values[v])
					}
				}
				byz := map[graph.NodeID]bool{}
				for len(byz) < 1+rng.Intn(row.f) {
					byz[graph.NodeID(1+rng.Intn(row.n))] = true
				}
				want := runOracle(t, g, tab, row.tol, values, byz, seed, newRef)
				got := runOracle(t, g, tab, row.tol, values, byz, seed, newTree)
				if got.bits != want.bits {
					t.Fatalf("seed %d: TotalBits %d, reference %d", seed, got.bits, want.bits)
				}
				if len(got.records) != len(want.records) {
					t.Fatalf("seed %d: %d messages sent, reference %d", seed, len(got.records), len(want.records))
				}
				for i, w := range want.records {
					g := got.records[i]
					gp, _ := g.Msg.Body.(*relay.Packet)
					wp, _ := w.Msg.Body.(*relay.Packet)
					if gp == nil || wp == nil {
						t.Fatalf("seed %d: message %d is not a relay packet:\n got %+v\nwant %+v", seed, i, g, w)
					}
					if g.Round != w.Round || g.Msg.From != w.Msg.From || g.Msg.To != w.Msg.To || g.Msg.Bits != w.Msg.Bits ||
						gp.Origin != wp.Origin || gp.Dest != wp.Dest || gp.PathIdx != wp.PathIdx || gp.Hop != wp.Hop ||
						gp.MsgID != wp.MsgID || !bytes.Equal(gp.Payload, wp.Payload) {
						t.Fatalf("seed %d: message %d differs:\n got %+v\nwant %+v", seed, i, g, w)
					}
				}
				for v, perGeneral := range want.decided {
					for q, w := range perGeneral {
						g := got.decided[v][q]
						if !bytes.Equal(g, w) || (g == nil) != (w == nil) {
							t.Fatalf("seed %d: node %d decides %#v for general %d, reference %#v", seed, v, g, q, w)
						}
					}
				}
			}
		})
	}
}

// TestEIGBroadcastAllocs pins the garbage of one step-2.2 flag agreement:
// K7, t = 2, engine and nodes built fresh, every general decided at every
// node (the map-keyed tree took about 28 000 objects for this, boxed
// relay copies and map-keyed phase charges about 2 070).
func TestEIGBroadcastAllocs(t *testing.T) {
	g := completeBi(7, 2)
	tab, err := relay.NewTable(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	participants := g.Nodes()
	allocs := testing.AllocsPerRun(5, func() {
		e := sim.New(g)
		nodes := make([]*Node, 0, len(participants))
		for _, v := range participants {
			nd, err := NewNode(v, participants, 2, relay.NewRouter(v, tab), []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetProcess(v, nd); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, nd)
		}
		if _, err := e.RunPhase("flags", nodes[0].Rounds()); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			nd.Finish()
			for _, q := range participants {
				if dec := nd.Decide(q); len(dec) != 1 || dec[0] != 1 {
					t.Fatalf("node %d decides %v for general %d", nd.self, dec, q)
				}
			}
		}
	})
	t.Logf("%.0f objects per broadcast", allocs)
	// 893 measured with shared relay copies and dense phase charges, + 10 %.
	if allocs > 982 {
		t.Errorf("one K7 t=2 broadcast allocates %.0f objects, want <= 982", allocs)
	}
}

// TestTreeHotPathAllocFree is the dynamic half of the //nab:allocfree
// marks: filing a batch and deciding touch no allocator.
func TestTreeHotPathAllocFree(t *testing.T) {
	g := completeBi(7, 2)
	tab, err := relay.NewTable(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNode(1, g.Nodes(), 2, relay.NewRouter(1, tab), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	batch := marshalRound(roundMsg{K: 1, Reports: []labelVal{
		{Path: []graph.NodeID{3}, Val: []byte{1}},
		{Path: []graph.NodeID{4}, Val: []byte{0}},
		{Path: []graph.NodeID{99}, Val: []byte{0}},
	}})
	var buf []byte
	allocs := testing.AllocsPerRun(100, func() {
		if k, ok := decodeRoundNumber(batch); !ok || k != 1 {
			t.Fatal("batch rejected")
		}
		nd.storeRound(batch, 1, 2)
		buf = nd.appendReport(buf[:0], nd.labelIndex([]graph.NodeID{3}, 1, 2), 2)
		nd.Decide(3)
	})
	if allocs != 0 {
		t.Errorf("store/encode/decide allocate %.0f objects per run, want 0", allocs)
	}
	if i := nd.labelIndex([]graph.NodeID{3}, 1, 2); !nd.slots[i].ok || !bytes.Equal(nd.slots[i].val, []byte{1}) {
		t.Error("report [3] from 2 was not filed under [3 2]")
	}
}

// FuzzRoundDecode holds the in-place batch walker to the reference
// decoder: same verdict on every input, same round number, same labels and
// values, and (by not panicking) no read past len(raw).
func FuzzRoundDecode(f *testing.F) {
	full := marshalRound(roundMsg{K: 2, Reports: []labelVal{
		{Path: []graph.NodeID{1, 10}, Val: []byte{1}},
		{Path: []graph.NodeID{2, 3}, Val: nil},
		{Path: []graph.NodeID{-4, 1 << 40}, Val: []byte("claims")},
	}})
	f.Add(full)
	for cut := 0; cut < len(full); cut += 3 {
		f.Add(full[:cut])
	}
	f.Add(marshalRound(roundMsg{K: 0, Reports: []labelVal{{Path: []graph.NodeID{7}, Val: []byte{0}}}}))
	f.Add(marshalRound(roundMsg{}))
	varints := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	f.Add(varints(1, 1<<40))                  // huge report count
	f.Add(varints(1, -1))                     // negative report count
	f.Add(varints(1, 1, 1<<40, 1))            // huge path length
	f.Add(varints(1, 1, -2))                  // negative path length
	f.Add(varints(1, 1, 1, 5, 1<<62))         // huge value length
	f.Add(varints(1, 1, 1, 5, -1))            // negative value length
	f.Add(append(varints(1, 1, 1, 5, 2), 9))  // value one byte short
	f.Add(bytes.Repeat([]byte{0xff}, 11))     // varint overflowing 64 bits
	f.Add(append(varints(0, 0), 0xde, 0xad))  // trailing bytes after the last report
	f.Add(append(varints(3, 2, 0, 0), 0x80))  // second report truncated mid-varint
	f.Add(varints(1, 2, 1, 5, 0, 1, 5, 0, 0)) // duplicate labels

	f.Fuzz(func(t *testing.T, raw []byte) {
		want, err := unmarshalRound(raw)
		k, ok := decodeRoundNumber(raw)
		if ok != (err == nil) {
			t.Fatalf("walker ok=%v, reference err=%v", ok, err)
		}
		if !ok {
			return
		}
		if k != int64(want.K) {
			t.Fatalf("walker round %d, reference %d", k, want.K)
		}
		gotK, count, pos, ok := readRoundHeader(raw)
		if !ok || gotK != k || count != int64(len(want.Reports)) {
			t.Fatalf("header (%d, %d, ok=%v), reference round %d with %d reports", gotK, count, ok, want.K, len(want.Reports))
		}
		path := make([]graph.NodeID, 4)
		for _, w := range want.Reports {
			var plen int64
			var val []byte
			if plen, val, pos, ok = readReport(raw, pos, path); !ok {
				t.Fatal("walker failed on a report it had validated")
			}
			if plen != int64(len(w.Path)) || !bytes.Equal(val, w.Val) {
				t.Fatalf("report (plen %d, val %x), reference (plen %d, val %x)", plen, val, len(w.Path), w.Val)
			}
			for j := 0; j < len(path) && j < len(w.Path); j++ {
				if path[j] != w.Path[j] {
					t.Fatalf("path[%d] = %d, reference %d", j, path[j], w.Path[j])
				}
			}
		}
	})
}
