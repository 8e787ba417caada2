package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"nab/internal/core"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/topo"
)

// harness is one transport under the conformance table: the Transport as
// link (1,2)'s dialer and receiver see it, plus the receive-side drop
// count and the depth of a node's inbox.
type harness struct {
	Transport
	dropped func() int64
	queued  func(v graph.NodeID) int
}

// meshPair is Fig. 1(a) hosted by two Peers — node 1 on a, the rest on b —
// so link (1,2) crosses a real socket between two endpoints.
type meshPair struct{ a, b *Peer }

func (mp meshPair) host(v graph.NodeID) *Peer {
	if _, ok := mp.a.inboxes[v]; ok {
		return mp.a
	}
	return mp.b
}
func (mp meshPair) Dial(from, to graph.NodeID) (Link, error) { return mp.host(from).Dial(from, to) }
func (mp meshPair) Serve(deliver func(*Message))             { mp.a.Serve(deliver); mp.b.Serve(deliver) }
func (mp meshPair) Recv(self graph.NodeID) (*Message, error) { return mp.host(self).Recv(self) }
func (mp meshPair) LinkBits() map[[2]graph.NodeID]int64      { return mp.a.LinkBits() }
func (mp meshPair) Close() error                             { mp.a.Close(); return mp.b.Close() }

func openMeshPair(t *testing.T, g *graph.Directed) meshPair {
	t.Helper()
	var ls [2]net.Listener
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
	}
	addrs := map[graph.NodeID]string{}
	var rest []graph.NodeID
	for _, v := range g.Nodes() {
		addrs[v] = ls[1].Addr().String()
		if v != 1 {
			rest = append(rest, v)
		}
	}
	addrs[1] = ls[0].Addr().String()
	a, err := NewPeer(g, []graph.NodeID{1}, addrs, "", PeerOptions{Listener: ls[0]})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPeer(g, rest, addrs, "", PeerOptions{Listener: ls[1]})
	if err != nil {
		t.Fatal(err)
	}
	return meshPair{a, b}
}

// politeChaos delays every frame by the same latency, so chaos links
// still deliver in send order.
var politeChaos = &ChaosConfig{Seed: 1, Default: LinkChaos{Latency: Duration(time.Millisecond)}}

func chanHarness(tr *Chan) harness {
	return harness{tr, func() int64 { return 0 }, func(v graph.NodeID) int { return len(tr.inboxes[v]) }}
}

func tcpHarness(t *testing.T, g *graph.Directed, opt TCPOptions) harness {
	tr, err := NewTCPOpts(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return harness{tr, tr.Dropped, func(v graph.NodeID) int { return len(tr.peers[v].inboxes[v]) }}
}

// conformanceTransports builds each shipped transport over g; sockets is
// how many connections one directed link costs.
var conformanceTransports = []struct {
	name    string
	sockets int64
	open    func(t *testing.T, g *graph.Directed) harness
}{
	{"chan", 0, func(t *testing.T, g *graph.Directed) harness {
		return chanHarness(NewChan(g, ChanOptions{}))
	}},
	{"chan-paced", 0, func(t *testing.T, g *graph.Directed) harness {
		return chanHarness(NewChan(g, ChanOptions{TimeUnit: 100 * time.Microsecond}))
	}},
	{"chan-chaos", 0, func(t *testing.T, g *graph.Directed) harness {
		return chanHarness(NewChan(g, ChanOptions{Chaos: politeChaos}))
	}},
	{"tcp", 1, func(t *testing.T, g *graph.Directed) harness {
		return tcpHarness(t, g, TCPOptions{})
	}},
	{"tcp-chaos", 1, func(t *testing.T, g *graph.Directed) harness {
		return tcpHarness(t, g, TCPOptions{Chaos: politeChaos})
	}},
	{"mesh", 1, func(t *testing.T, g *graph.Directed) harness {
		mp := openMeshPair(t, g)
		return harness{mp, mp.b.Dropped, func(v graph.NodeID) int { return len(mp.host(v).inboxes[v]) }}
	}},
}

// TestTransportConformance pins the one Link/Transport contract on every
// shipped transport, paced and under chaos too: physics at Dial and Send,
// one link state per directed link however often it is dialed, send-order
// delivery on a polite link, send-side accounting with each link counted
// once, drain-then-ErrClosed at Close, and no Send accepted after it.
func TestTransportConformance(t *testing.T) {
	for _, tc := range conformanceTransports {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.open(t, topo.Fig1a())
			defer h.Close()

			if _, err := h.Dial(2, 4); err == nil {
				t.Error("dialing a non-link succeeded")
			}
			dials := mDials.Value()
			first, err := h.Dial(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			again, err := h.Dial(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := mDials.Value() - dials; got != tc.sockets {
				t.Errorf("dialing (1,2) twice opened %d connections, want %d", got, tc.sockets)
			}

			if err := first.Send(&Message{From: 2, To: 1}); err == nil {
				t.Error("frame with wrong endpoints accepted")
			}
			if err := first.Send(&Message{From: 1, To: 2, Bits: -5, Body: []byte("negative")}); err == nil {
				t.Error("frame with a negative bit charge accepted")
			}

			// Both handles feed one link: frames alternate between them.
			sent := []*Message{
				{Instance: 1, Step: 1, From: 1, To: 2, Bits: 13, Body: core.Phase1Msg{
					Tree: 0, Block: core.BitChunk{Bytes: []byte{0xab, 0xcd}, BitLen: 13},
				}},
				{Instance: 1, Step: 2, From: 1, To: 2, Bits: 128, Body: core.EqMsg{Symbols: []gf.Elem{9, 10}}},
				{Instance: 1, Step: 2, From: 1, To: 2, Packets: []Packet{}},
			}
			for i, m := range sent {
				if err := []Link{first, again}[i%2].Send(m); err != nil {
					t.Fatal(err)
				}
			}
			for i, want := range sent {
				got, err := h.Recv(2)
				if err != nil {
					t.Fatal(err)
				}
				if got.Step != want.Step || !payloadEqual(want, got) {
					t.Errorf("frame %d mismatch: got %+v", i, got)
				}
			}
			// 13 + 128: the empty step frame is free, the rejected frames
			// never entered the link, and two handles (or two metering
			// ends) still count each frame once.
			if got := h.LinkBits()[[2]graph.NodeID{1, 2}]; got != 141 {
				t.Errorf("link (1,2) accounted %d bits, want 141", got)
			}
			if d := h.dropped(); d != 0 {
				t.Errorf("receiver dropped %d frames; rejected sends must never reach the wire", d)
			}

			// Frames the receiver already holds survive Close.
			for i := 0; i < 2; i++ {
				if err := first.Send(&Message{From: 1, To: 2, Step: uint32(10 + i), Bits: 8, Body: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); h.queued(2) < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("frames never reached the receiver's inbox")
				}
			}
			h.Close()
			for i := 0; i < 2; i++ {
				if m, err := h.Recv(2); err != nil || int(m.Step) != 10+i {
					t.Fatalf("Recv %d after Close: %+v, %v; want the frame delivered before it", i, m, err)
				}
			}
			if _, err := h.Recv(2); err != ErrClosed {
				t.Errorf("Recv on a drained closed transport: %v, want ErrClosed", err)
			}
			for i := 0; i < 20; i++ {
				if err := first.Send(&Message{From: 1, To: 2, Bits: 8, Body: []byte{1}}); !errors.Is(err, ErrClosed) {
					t.Fatalf("Send %d after Close: %v, want ErrClosed", i, err)
				}
			}
		})
	}
}

// TestTCPDropsForgedFrames: loopback links are handshake-pinned like the
// mesh's. A connection that skips the handshake is rejected outright; one
// that pins (1,2) cannot inject frames for another link or with a negative
// charge — they are dropped and counted, and the legitimate frame behind
// them is delivered.
func TestTCPDropsForgedFrames(t *testing.T) {
	tr, err := NewTCP(topo.Fig1a())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	legit := &Message{From: 1, To: 2, Bits: 8, Body: []byte("ok")}

	raw, err := net.Dial("tcp", tr.Addr(2))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame, err := AppendFrame(nil, legit)
	if err != nil || len(frame) < 21 {
		t.Fatalf("frame of %d bytes (%v); the accepter reads a 21-byte handshake before judging", len(frame), err)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	var verdict [2]byte
	if n, err := raw.Read(verdict[:]); n != 1 || verdict[0] == peerAccept {
		t.Fatalf("handshake-less connection got %d bytes %v (%v), want one rejecting verdict", n, verdict[:n], err)
	}
	if n, err := raw.Read(verdict[:]); err == nil {
		t.Fatalf("rejected connection stayed open (read %d bytes)", n)
	}

	pinned, err := net.Dial("tcp", tr.Addr(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	if err := writeHandshake(pinned, 1, 2); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Message{
		{From: 2, To: 4, Bits: 8, Body: []byte("another link")},
		{From: 1, To: 2, Bits: -5, Body: []byte("negative bits")},
		legit,
	} {
		if err := WriteFrame(pinned, m); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Recv(2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bits != 8 || !bodiesEqual(legit.Body, got.Body) {
		t.Errorf("received %+v, want the legitimate frame", got)
	}
	if d := tr.Dropped(); d != 2 {
		t.Errorf("dropped %d forged frames, want 2", d)
	}
}
