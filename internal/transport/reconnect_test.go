package transport_test

import (
	"testing"
	"time"

	"nab/internal/flight"
	"nab/internal/graph"
	"nab/internal/topo"
	"nab/internal/transport"
)

// TestPeerReconnectHealsLink is the transport half of crash-recovery: a
// peer process dies, sends onto its links drop without failing the
// sender, and once a replacement process binds the same address the link
// heals and carries frames again. The flight recorder sees the link go
// down and come back up.
func TestPeerReconnectHealsLink(t *testing.T) {
	rec := flight.Default()
	rec.Enable(1024)
	defer rec.Disable()
	g := topo.CompleteBi(2, 1)
	addrs := freeAddrs(t, 2)
	addrMap := map[graph.NodeID]string{1: addrs[0], 2: addrs[1]}
	opt := transport.PeerOptions{Reconnect: true, DialTimeout: 5 * time.Second}
	a, err := transport.NewPeer(g, []graph.NodeID{1}, addrMap, addrs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.NewPeer(g, []graph.NodeID{2}, addrMap, addrs[1], opt)
	if err != nil {
		t.Fatal(err)
	}

	l, err := a.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Send(&transport.Message{Instance: 1, From: 1, To: 2, Bits: 8, Body: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if m, err := b.Recv(2); err != nil || m.Body.([]byte)[0] != 1 {
		t.Fatalf("pre-crash delivery failed: %v %+v", err, m)
	}

	// Crash the remote process: its listener and conns close.
	b.Close()

	// Sends during the outage must not error — they drop, counted, while
	// the background redial spins.
	deadline := time.Now().Add(10 * time.Second)
	for a.LostSends() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no send was observed dropping on the dead link")
		}
		if err := l.Send(&transport.Message{Instance: 2, From: 1, To: 2, Bits: 8, Body: []byte{2}}); err != nil {
			t.Fatalf("send onto dead link surfaced an error: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart the peer on the same address: the link must heal.
	b2, err := transport.NewPeer(g, []graph.NodeID{2}, addrMap, addrs[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got := make(chan *transport.Message, 1)
	go func() {
		for {
			m, err := b2.Recv(2)
			if err != nil {
				return
			}
			if m.Instance == 3 {
				got <- m
				return
			}
		}
	}()
	deadline = time.Now().Add(15 * time.Second)
heal:
	for {
		if err := l.Send(&transport.Message{Instance: 3, From: 1, To: 2, Bits: 8, Body: []byte{3}}); err != nil {
			t.Fatalf("send after restart errored: %v", err)
		}
		select {
		case m := <-got:
			if m.Body.([]byte)[0] != 3 {
				t.Fatalf("healed link delivered corrupted frame: %+v", m)
			}
			break heal
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("link did not heal after peer restart")
		}
	}

	var seen []flight.EventType
	for _, ev := range rec.Events() {
		if ev.Type == flight.EvLinkDown || ev.Type == flight.EvLinkUp {
			if ev.Node != 1 || ev.Peer != 2 {
				t.Fatalf("%v event names link (%d,%d), want (1,2)", ev.Type, ev.Node, ev.Peer)
			}
			seen = append(seen, ev.Type)
		}
	}
	if len(seen) != 2 || seen[0] != flight.EvLinkDown || seen[1] != flight.EvLinkUp {
		t.Fatalf("link events %v, want [link-down link-up]", seen)
	}
}

// TestPeerInboundRepin: a restarted dialer re-pins a link the accepter
// still holds a (dead) connection for; the accepter must adopt the new
// connection instead of rejecting or ignoring it.
func TestPeerInboundRepin(t *testing.T) {
	g := topo.CompleteBi(2, 1)
	addrs := freeAddrs(t, 3)
	addrMap := map[graph.NodeID]string{1: addrs[0], 2: addrs[1]}
	opt := transport.PeerOptions{Reconnect: true, DialTimeout: 5 * time.Second}
	b, err := transport.NewPeer(g, []graph.NodeID{2}, addrMap, addrs[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a1, err := transport.NewPeer(g, []graph.NodeID{1}, addrMap, addrs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := a1.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.Send(&transport.Message{Instance: 1, From: 1, To: 2, Bits: 8, Body: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if m, err := b.Recv(2); err != nil || m.Instance != 1 {
		t.Fatalf("first incarnation delivery failed: %v %+v", err, m)
	}

	// Kill the first incarnation without closing gracefully as far as B
	// can tell (Close also closes conns, which is exactly what an OS
	// process death does), then bring up a second incarnation of node 1's
	// host on a fresh listener address — same addrMap role, new socket.
	a1.Close()
	addrMap2 := map[graph.NodeID]string{1: addrs[2], 2: addrs[1]}
	a2, err := transport.NewPeer(g, []graph.NodeID{1}, addrMap2, addrs[2], opt)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	l2, err := a2.Dial(1, 2)
	if err != nil {
		t.Fatalf("re-pin dial rejected: %v", err)
	}
	if err := l2.Send(&transport.Message{Instance: 2, From: 1, To: 2, Bits: 8, Body: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if m, err := b.Recv(2); err != nil || m.Instance != 2 {
		t.Fatalf("re-pinned link delivery failed: %v %+v", err, m)
	}
}
