package transport_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"nab/internal/graph"
	"nab/internal/topo"
	"nab/internal/transport"
)

// freeAddrs reserves n loopback addresses for a test mesh.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l.Addr().String()
		l.Close()
	}
	return out
}

// twoPeers builds a K3 mesh hosted by two endpoints: {1,2} and {3}.
func twoPeers(t *testing.T, opt transport.PeerOptions) (*transport.Peer, *transport.Peer) {
	t.Helper()
	g := topo.CompleteBi(3, 2)
	addrs := freeAddrs(t, 2)
	addrMap := map[graph.NodeID]string{1: addrs[0], 2: addrs[0], 3: addrs[1]}
	a, err := transport.NewPeer(g, []graph.NodeID{1, 2}, addrMap, addrs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := transport.NewPeer(g, []graph.NodeID{3}, addrMap, addrs[1], opt)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestPeerMeshDelivery covers what only a multi-node endpoint has (the
// per-link contract itself is TestTransportConformance): a local-to-local
// link stays in memory, and both ends of a remote link meter it.
func TestPeerMeshDelivery(t *testing.T) {
	a, b := twoPeers(t, transport.PeerOptions{})

	// Remote link (1,3) crosses a real socket.
	l13, err := a.Dial(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l13.Send(&transport.Message{Instance: 1, Step: uint32(i), From: 1, To: 3, Bits: 8, Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := b.Recv(3)
		if err != nil {
			t.Fatal(err)
		}
		if m.Step != uint32(i) || !bytes.Equal(m.Body.([]byte), []byte{byte(i)}) {
			t.Fatalf("frame %d arrived out of order or corrupted: %+v", i, m)
		}
	}

	// Local link (1,2): in-memory shortcut with the same semantics.
	l12, err := a.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l12.Send(&transport.Message{From: 1, To: 2, Bits: 16, Body: []byte("xy")}); err != nil {
		t.Fatal(err)
	}
	if m, err := a.Recv(2); err != nil || m.From != 1 {
		t.Fatalf("local delivery failed: %v, %+v", err, m)
	}

	// Accounting: sender side for (1,3) and (1,2); receive side on b.
	if bits := a.LinkBits()[[2]graph.NodeID{1, 3}]; bits != 40 {
		t.Errorf("sender accounted %d bits on (1,3), want 40", bits)
	}
	if bits := b.LinkBits()[[2]graph.NodeID{1, 3}]; bits != 40 {
		t.Errorf("receiver accounted %d bits on (1,3), want 40", bits)
	}
	if bits := a.LinkBits()[[2]graph.NodeID{1, 2}]; bits != 16 {
		t.Errorf("sender accounted %d bits on (1,2), want 16", bits)
	}
}

func TestPeerPhysicsEnforcement(t *testing.T) {
	a, b := twoPeers(t, transport.PeerOptions{})

	// Dialing a link the topology lacks, or from a non-local node, fails.
	if _, err := a.Dial(1, 1); err == nil {
		t.Error("self-loop dial succeeded")
	}
	if _, err := a.Dial(3, 1); err == nil {
		t.Error("dial from remotely-hosted node succeeded")
	}

	// A connection's frames are pinned to its handshake link: claiming
	// other coordinates is dropped on receipt.
	l, err := a.Dial(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Send(&transport.Message{From: 1, To: 3, Bits: 8}); err == nil {
		t.Error("link accepted a frame with forged sender")
	}
	if err := l.Send(&transport.Message{From: 2, To: 3, Bits: 8, Body: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if m, err := b.Recv(3); err != nil || m.From != 2 {
		t.Fatalf("legitimate frame lost: %v %+v", err, m)
	}
	if d := b.Dropped(); d != 0 {
		t.Errorf("unexpected receiver drops: %d", d)
	}
}

func TestPeerHandshakeRejects(t *testing.T) {
	_, b := twoPeers(t, transport.PeerOptions{})

	// Garbage handshake: the accepter answers with a non-zero verdict.
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage-handshake-bytes__")); err != nil {
		t.Fatal(err)
	}
	verdict := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(verdict); err != nil {
		t.Fatalf("no verdict for bad handshake: %v", err)
	}
	if verdict[0] == 0 {
		t.Error("bad handshake accepted")
	}

	// A link not terminating at the accepter's locals is rejected too:
	// node 2 lives on peer A, so handshaking (1,2) at B must fail.
	g := topo.CompleteBi(3, 2)
	addrMap := map[graph.NodeID]string{1: b.Addr(), 2: b.Addr(), 3: b.Addr()}
	rogue, err := transport.NewPeer(g, []graph.NodeID{1}, addrMap, "127.0.0.1:0", transport.PeerOptions{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	if _, err := rogue.Dial(1, 2); err == nil {
		t.Error("peer accepted a link for a node it does not host")
	}
}

func TestPeerDialRetryWhileBooting(t *testing.T) {
	g := topo.CompleteBi(2, 1)
	addrs := freeAddrs(t, 2)
	addrMap := map[graph.NodeID]string{1: addrs[0], 2: addrs[1]}
	a, err := transport.NewPeer(g, []graph.NodeID{1}, addrMap, addrs[0], transport.PeerOptions{DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Dial before the remote peer exists; bring it up shortly after.
	errCh := make(chan error, 1)
	var late *transport.Peer
	go func() {
		time.Sleep(300 * time.Millisecond)
		p, err := transport.NewPeer(g, []graph.NodeID{2}, addrMap, addrs[1], transport.PeerOptions{})
		late = p
		errCh <- err
	}()
	l, err := a.Dial(1, 2)
	if err != nil {
		t.Fatalf("dial did not survive the boot race: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := l.Send(&transport.Message{From: 1, To: 2, Bits: 8, Body: []byte{7}}); err != nil {
		t.Fatal(err)
	}
	if m, err := late.Recv(2); err != nil || m.Bits != 8 {
		t.Fatalf("frame across late-boot link lost: %v %+v", err, m)
	}
}

func TestPeerPacingOnTheWire(t *testing.T) {
	// Capacity 2 bits per 10ms time unit across a real socket: paced
	// frames must arrive no faster than the link carries them.
	g := topo.CompleteBi(2, 2)
	addrs := freeAddrs(t, 2)
	addrMap := map[graph.NodeID]string{1: addrs[0], 2: addrs[1]}
	opt := transport.PeerOptions{TimeUnit: 10 * time.Millisecond}
	a, err := transport.NewPeer(g, []graph.NodeID{1}, addrMap, addrs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.NewPeer(g, []graph.NodeID{2}, addrMap, addrs[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	l, err := a.Dial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := l.Send(&transport.Message{From: 1, To: 2, Bits: 10, Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Recv(2); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// The 2-bit bucket covers 2 of the 30 bits: ~(30-2)/2 = 14 units =
	// 140ms until the third frame arrives. Accept half to stay robust
	// under CI scheduling noise.
	if elapsed < 70*time.Millisecond {
		t.Errorf("three paced frames arrived in %v; pacing is not biting", elapsed)
	}
}
