package transport

import (
	"fmt"
	"net"
	"sync"

	"nab/internal/graph"
)

// TCPOptions tunes the loopback transport.
type TCPOptions struct {
	// Chaos interposes seeded hostile network physics (latency, jitter,
	// reorder windows, scheduled partitions, slow links) on every dialed
	// link. Nil means a polite network. See ChaosConfig.
	Chaos *ChaosConfig
}

// TCP is the loopback TCP Transport: the cluster mesh inside one process.
// Every node is its own single-node Peer on a 127.0.0.1 listener, so every
// directed link is a real handshake-pinned connection carrying wire frames
// (see wire.go) from the link's queue — no link short-circuits in memory,
// and forged or mis-pinned frames are dropped on receipt exactly as a
// cluster process would drop them. TCP itself only routes: Dial to the
// sender's peer, Recv to the receiver's, Serve to every peer.
type TCP struct {
	peers map[graph.NodeID]*Peer
}

// NewTCP listens on an ephemeral loopback port per node of g and starts
// one single-node Peer on each.
func NewTCP(g *graph.Directed) (*TCP, error) {
	return NewTCPOpts(g, TCPOptions{})
}

// NewTCPOpts is NewTCP with options.
func NewTCPOpts(g *graph.Directed, opt TCPOptions) (*TCP, error) {
	// Every listener is bound before any peer starts: a peer needs the
	// whole address map, and its first dial must find the remote port open.
	listeners := map[graph.NodeID]net.Listener{}
	addrs := map[graph.NodeID]string{}
	t := &TCP{peers: map[graph.NodeID]*Peer{}}
	fail := func(err error) (*TCP, error) {
		t.Close()
		for _, l := range listeners {
			l.Close()
		}
		return nil, err
	}
	for _, v := range g.Nodes() {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("transport: listen for node %d: %w", v, err))
		}
		listeners[v], addrs[v] = l, l.Addr().String()
	}
	for v, l := range listeners {
		p, err := NewPeer(g, []graph.NodeID{v}, addrs, "", PeerOptions{Listener: l, Chaos: opt.Chaos})
		if err != nil {
			return fail(err)
		}
		t.peers[v] = p
	}
	return t, nil
}

// Addr returns the loopback address node v listens on.
func (t *TCP) Addr(v graph.NodeID) string {
	if p, ok := t.peers[v]; ok {
		return p.Addr()
	}
	return ""
}

// Dial implements Transport.
func (t *TCP) Dial(from, to graph.NodeID) (Link, error) {
	p, ok := t.peers[from]
	if !ok {
		return nil, fmt.Errorf("transport: no link (%d,%d) in topology", from, to)
	}
	return p.Dial(from, to)
}

// Serve implements Transport: every peer hands its frames to deliver.
func (t *TCP) Serve(deliver func(*Message)) {
	for _, p := range t.peers {
		p.Serve(deliver)
	}
}

// Recv implements Transport.
func (t *TCP) Recv(self graph.NodeID) (*Message, error) {
	p, ok := t.peers[self]
	if !ok {
		return nil, fmt.Errorf("transport: node %d not in topology", self)
	}
	return p.Recv(self)
}

// LinkBits implements Transport. Both ends of a link meter it; each link
// is reported from its sender's peer only.
func (t *TCP) LinkBits() map[[2]graph.NodeID]int64 {
	out := map[[2]graph.NodeID]int64{}
	for v, p := range t.peers {
		for key, b := range p.LinkBits() {
			if key[0] == v {
				out[key] = b
			}
		}
	}
	return out
}

// Dropped returns how many received frames violated physics.
func (t *TCP) Dropped() int64 {
	var n int64
	for _, p := range t.peers {
		n += p.Dropped()
	}
	return n
}

// Close implements Transport: closes every peer at once, so all links
// share one best-effort flush grace (see Peer.Close).
func (t *TCP) Close() error {
	var wg sync.WaitGroup
	for _, p := range t.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
	return nil
}
