package bb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
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
// from rng: truncations, bit flips, garbage, values added or dropped, lies.
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
	case 2: // garbage, sometimes shaped like a huge value length
		raw = make([]byte, rng.Intn(24))
		rng.Read(raw)
		if rng.Intn(3) == 0 {
			raw = binary.AppendUvarint(binary.AppendUvarint(nil, uint64(rng.Intn(3))), 1<<40)
		}
	case 3: // extra values, inserted anywhere
		if msg, err := unmarshalRound(raw); err == nil {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				at := rng.Intn(len(msg.Vals) + 1)
				msg.Vals = slices.Insert(msg.Vals, at, []byte{byte(rng.Intn(4))})
			}
			raw = marshalRound(msg)
		}
	case 4: // values dropped, now and then all of them
		if msg, err := unmarshalRound(raw); err == nil && len(msg.Vals) > 0 {
			if rng.Intn(4) == 0 {
				msg.Vals = nil
			} else {
				at := rng.Intn(len(msg.Vals))
				msg.Vals = slices.Delete(msg.Vals, at, at+1+rng.Intn(len(msg.Vals)-at))
			}
			raw = marshalRound(msg)
		}
	case 5: // lie about values, now and then about the round too
		if msg, err := unmarshalRound(raw); err == nil {
			for j := range msg.Vals {
				if rng.Intn(2) == 0 {
					msg.Vals[j] = []byte{byte(rng.Intn(3))}
				}
			}
			msg.K += uint64(rng.Intn(5) / 4)
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
// the numeric order labels take inside a batch.
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
	// 742 measured with value-only batches, + 10 %.
	if allocs > 816 {
		t.Errorf("one K7 t=2 broadcast allocates %.0f objects, want <= 816", allocs)
	}
}

// TestTreeHotPathAllocFree is the dynamic half of the //nab:allocfree
// marks: decoding and filing a batch and deciding touch no allocator.
func TestTreeHotPathAllocFree(t *testing.T) {
	nd := k7Node(t, 1)
	// Node 2's round-1 batch reports labels [1] [3] [4] [5] [6] [7].
	batch := marshalRound(roundMsg{K: 1, Vals: [][]byte{{0}, {1}, {0}, nil, {}, {0}}})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := decodeRound(batch, 1, nd.lay.batchLen(1)); !ok {
			t.Fatal("batch rejected")
		}
		nd.storeRound(batch, 1, nd.labelAt(2))
		nd.Decide(3)
	})
	if allocs != 0 {
		t.Errorf("decode/file/decide allocate %.0f objects per run, want 0", allocs)
	}
	if got := nd.slots[nd.labelAt(3, 2)]; !bytes.Equal(got, []byte{1}) {
		t.Errorf("value for [3] from 2 filed as %v under [3 2], want [1]", got)
	}
}

// FuzzRoundDecode holds the in-place batch walker (decodeRound, then
// readValue per value) to the reference decoder: on every input, for
// every round and value count asked, the walker accepts exactly when the
// reference decodes that round with that many values, reads the same
// values, and (by not panicking) never reads past len(raw).
func FuzzRoundDecode(f *testing.F) {
	full := marshalRound(roundMsg{K: 2, Vals: [][]byte{{1}, nil, []byte("claims"), {}, bytes.Repeat([]byte{7}, 200)}})
	for cut := 0; cut <= len(full); cut++ {
		f.Add(full[:cut])
	}
	f.Add(marshalRound(roundMsg{K: 0, Vals: [][]byte{{0}}}))
	f.Add(marshalRound(roundMsg{}))
	uvarints := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	f.Add(uvarints(3, 1, 5))               // wrong round for a round-1 walk
	f.Add(uvarints(1, 1, 5, 1, 6, 1, 7))   // one value extra for two, short for four
	f.Add(append(uvarints(1, 1, 5), 0x80)) // trailing byte
	f.Add(append(uvarints(1, 5), 9))       // value length past the end
	f.Add(uvarints(1, 1<<62))              // huge value length
	f.Add(bytes.Repeat([]byte{0xff}, 11))  // uvarint overflowing 64 bits
	f.Add(uvarints(1<<63, 0))              // round number beyond int

	f.Fuzz(func(t *testing.T, raw []byte) {
		want, err := unmarshalRound(raw)
		for k := range 4 {
			for count := 0; count <= len(raw); count++ {
				body, ok := decodeRound(raw, k, count)
				if ok != (err == nil && want.K == uint64(k) && len(want.Vals) == count) {
					t.Fatalf("round %d, %d values: walker ok=%v, reference %+v err=%v", k, count, ok, want, err)
				}
				if !ok {
					continue
				}
				pos := body
				for j, w := range want.Vals {
					var val []byte
					if val, pos, ok = readValue(raw, pos); !ok || !bytes.Equal(val, w) {
						t.Fatalf("value %d: walker %x (ok=%v), reference %x", j, val, ok, w)
					}
				}
				if pos != len(raw) {
					t.Fatalf("walker ends at %d of %d", pos, len(raw))
				}
			}
		}
	})
}
