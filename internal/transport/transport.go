// Package transport provides pluggable point-to-point message transports
// for the concurrent NAB runtime (internal/runtime): real per-link message
// channels replacing the lockstep simulator's in-memory delivery.
//
// A Transport exposes the paper's network model as an actual substrate:
// nodes may communicate only over the directed links of the topology, each
// link is FIFO, and every transmitted bit is charged against the link —
// optionally enforced in real time by per-link token-bucket pacing that
// reproduces the paper's capacity charge bits/z_e (a b-bit frame on a link
// of capacity z_e occupies it for b/z_e time units).
//
// One in-memory core (mesh.go) and one socket stack (peer.go) sit behind
// every Transport:
//
//   - mesh: the core — inboxes of the nodes hosted here, one cached state
//     per directed link (token bucket, bit meter, metric counters) whose
//     admit preamble validates and charges every Send, Recv, LinkBits;
//   - Chan: the mesh hosting every node, no sockets — the default
//     substrate for the pipelined runtime and for tests;
//   - Peer: the mesh plus a listener and one handshake-pinned socket link
//     (coalescing writer, encoding/binary framing, see wire.go) per
//     directed link to a receiver hosted elsewhere — the multi-process
//     full-mesh of cluster deployments, optionally crash-healing;
//   - TCP: one single-node Peer per node on loopback listeners behind a
//     routing composite, so every link is a real socket — the
//     realistic-serving substrate used by cmd/nabserve.
//
// Bits are metered where frames are admitted, on the send side; a Peer
// also meters the frames it receives from remote senders, so a process
// accounts every link it can observe, each once. That makes aggregate
// utilization comparable against capacity.Report's bounds. Every
// transport can interpose the seeded hostile-network physics of
// ChaosConfig (latency, jitter, reorder windows, scheduled asymmetric
// partitions, slow links) for scenario testing.
package transport

import (
	"errors"

	"nab/internal/graph"
)

// Message is one frame on a directed link. Frames are tagged with the
// runtime's pipelining coordinates (Instance, Step) so multiple NAB
// instances can share the links concurrently.
type Message struct {
	// Instance identifies the runtime launch this frame belongs to.
	Instance uint64
	// Step is the absolute delivery step within the instance's execution
	// (the runtime's cross-phase round counter).
	Step uint32
	From graph.NodeID
	To   graph.NodeID
	// Marker marks an end-of-step control frame: "From has emitted all of
	// its step-Step messages on this link". Markers carry no payload and
	// are never charged against link capacity.
	Marker bool
	// Bits is the information-theoretic size charged against the link
	// capacity (the paper charges protocol content, not framing).
	Bits int64
	// Body is the protocol payload: core.Phase1Msg, core.EqMsg,
	// relay.Packet, []byte, or nil for markers. Wire transports encode it
	// with the codec in wire.go.
	Body any
}

// Link is the sender half of one directed link. A Link is FIFO: frames
// arrive at the remote node in Send order. Send may block while the link's
// token bucket drains (pacing) but is safe for concurrent use. Links are
// owned by their Transport — dialing a link again returns the same Link —
// and live until it closes.
//
// Ordering invariant: the runtime genuinely depends on FIFO only *within*
// each (link, instance) stream. An end-of-step marker promises that its
// instance's earlier emissions on the link are already in flight ahead of
// it — the receiving mailbox consumes a step the moment its markers are
// in, so a data frame reordered behind its own marker would be silently
// lost (see mailbox.await in internal/runtime/engine.go). Cross-instance
// and cross-link arrival order is free: frames are buffered per
// (instance, step) and instances demultiplex independently. The chaos
// layer (chaos.go) exploits exactly this slack — it reorders across
// instances while clamping per-instance FIFO — and the Peer mesh's
// 21-byte handshake is pinned the same way: it must precede the data
// frames of its connection, never reordered behind them.
type Link interface {
	Send(m *Message) error
}

// Transport is a point-to-point substrate over a fixed capacitated
// topology.
type Transport interface {
	// Dial opens the sender half of directed link (from, to). Dialing a
	// link absent from the topology fails: physics forbids it.
	Dial(from, to graph.NodeID) (Link, error)
	// Recv blocks until the next frame addressed to self arrives, in
	// arrival order across all of self's in-links. It returns ErrClosed
	// after Close.
	Recv(self graph.NodeID) (*Message, error)
	// LinkBits snapshots the cumulative per-link capacity charges in bits
	// (markers and framing excluded).
	LinkBits() map[[2]graph.NodeID]int64
	Close() error
}

// ErrClosed is returned by Recv and Send after the transport closes.
var ErrClosed = errors.New("transport: closed")
