// Package transport provides pluggable point-to-point message transports
// for the concurrent NAB runtime (internal/runtime): real per-link message
// channels replacing the lockstep simulator's in-memory delivery.
//
// A Transport exposes the paper's network model as an actual substrate:
// nodes may communicate only over the directed links of the topology, and
// every transmitted bit is charged against the link — optionally enforced
// in real time by per-link token-bucket pacing that reproduces the paper's
// capacity charge bits/z_e (a b-bit frame on a link of capacity z_e
// occupies it for b/z_e time units).
//
// The runtime's wire unit is the step frame: one frame per (instance,
// step, from, to) carrying every packet the sender emitted toward the
// receiver in that round of the synchronous model, possibly none. Its
// arrival is the sender's end-of-step promise, so no control frame and
// no ordering guarantee is needed beyond delivery. A step frame carries
// its packets in the typed Message.Packets list; Message.Body is for
// frames that carry one single body instead, and such a frame is never
// a step frame.
//
// One in-memory core (mesh.go) and one socket stack (peer.go) sit behind
// every Transport:
//
//   - mesh: the core — the one delivery point of the nodes hosted here
//     and one link per directed link, whose one Send admits and meters
//     every frame and queues it for the link's goroutine (chaos release
//     time, token bucket, then delivery or socket) unless the link is an
//     unpaced, chaos-free in-memory one, which delivers inline; Serve,
//     Recv, LinkBits;
//   - Chan: the mesh hosting every node, no sockets — the default
//     substrate for the pipelined runtime and for tests;
//   - Peer: the mesh plus a listener and one handshake-pinned socket per
//     directed link to a receiver hosted elsewhere (buffered writes
//     flushed whenever no frame is due, encoding/binary framing, see
//     wire.go) — the multi-process full-mesh of cluster deployments,
//     optionally crash-healing;
//   - TCP: one single-node Peer per node on loopback listeners behind a
//     routing composite, so every link is a real socket — the
//     realistic-serving substrate used by cmd/nabserve.
//
// Delivery is push: a receiver hands the transport one handler with
// Serve, and every sink — a direct link's Send on the sender's goroutine,
// a queued link's goroutine, a Peer's socket reader — calls it with each
// frame addressed to a node hosted here. Serve comes before the first
// Dial, and a Peer reads nothing from its sockets before it, so a frame
// that arrives early waits in the kernel's socket buffer and never changes
// delivery path. Recv, for callers that never Serve, reads per-node
// inboxes instead; its first call starts the socket readers.
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
//
// A frame is a step frame exactly when Packets is non-nil: Packets holds
// the step's packet list (empty, but non-nil, when the sender emitted
// nothing toward the receiver) and Body is nil. Every other frame has nil
// Packets and carries at most one single Body.
type Message struct {
	// Instance identifies the runtime launch this frame belongs to.
	Instance uint64
	// Step is the absolute delivery step within the instance's execution
	// (the runtime's cross-phase round counter).
	Step uint32
	From graph.NodeID
	To   graph.NodeID
	// Bits is the information-theoretic size charged against the link
	// capacity (the paper charges protocol content, not framing). For a
	// step frame it is the sum of its packets' charges.
	Bits int64
	// Packets is a step frame's packet list, in emission order. It is a
	// typed field, not a Body, so sending a step frame boxes nothing.
	Packets []Packet
	// Body is a non-step frame's payload: one single body (core.Phase1Msg,
	// core.EqMsg, *relay.Packet, []byte or nil). Wire transports encode
	// it, like Packets, with the codec in wire.go.
	Body any
}

// Packet is one protocol message inside a step frame: everything a node
// emits toward one out-neighbour in one step travels as a single frame
// whose Packets list them in emission order, possibly none. A packet's
// Body is a single body, never a packet list.
type Packet struct {
	Bits int64
	Body any
}

// Link is the sender half of one directed link. On a polite network
// frames arrive in Send order; chaos physics (chaos.go) may reorder them,
// and nothing above the transport depends on arrival order — the runtime
// keys every frame by (instance, step). Send never waits for the token
// bucket: a paced frame waits in its link's queue, so a sender's frames to
// fast links never queue behind its slow one. On an unpaced, chaos-free
// in-memory link Send runs the receiver's Serve handler inline. Send
// blocks only while the receiver takes no frames — one that never Serves
// stops calling Recv, or a remote one has not Served yet and its socket
// buffer and the link's queue are full — and is safe for concurrent use.
// Links are owned by their Transport — dialing a link again returns the
// same Link — and live until it closes.
type Link interface {
	Send(m *Message) error
}

// Transport is a point-to-point substrate over a fixed capacitated
// topology.
type Transport interface {
	// Dial opens the sender half of directed link (from, to). Dialing a
	// link absent from the topology fails: physics forbids it.
	Dial(from, to graph.NodeID) (Link, error)
	// Serve makes deliver the receiver of every frame addressed to a node
	// hosted here, and starts the socket readers: frames remote senders
	// wrote before the call are read after it. It is called at most once,
	// before the first Dial and the first Recv. deliver may run on any
	// goroutine, concurrently, and inside a Send; it must not block and
	// must not call Send. Once Close has returned it is never called
	// again.
	Serve(deliver func(*Message))
	// Recv blocks until the next frame addressed to self arrives, in
	// arrival order across all of self's in-links, for callers that never
	// Serve: after Serve it fails at once. Its first call starts the
	// socket readers. It returns ErrClosed after Close, once the frames
	// delivered before it are read.
	Recv(self graph.NodeID) (*Message, error)
	// LinkBits snapshots the cumulative per-link capacity charges in bits
	// (framing excluded).
	LinkBits() map[[2]graph.NodeID]int64
	Close() error
}

// ErrClosed is returned by Recv and Send after the transport closes.
var ErrClosed = errors.New("transport: closed")
