// Package relay implements reliable end-to-end communication between
// fault-free nodes in an incomplete point-to-point network, emulating a
// complete graph: every ordered pair of nodes communicates along 2f+1
// precomputed internally-node-disjoint paths, and the receiver takes the
// majority over path copies.
//
// With at most f faulty nodes and node-disjoint paths, a faulty node can
// corrupt at most one path copy, so at least f+1 of 2f+1 copies arrive
// intact and the majority is the value sent. This is the standard
// construction the paper invokes in Appendix D to run a classic Byzantine
// broadcast algorithm ("Broadcast_Default") over an arbitrary network with
// connectivity >= 2f+1.
package relay

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"nab/internal/graph"
	"nab/internal/sim"
)

// Table holds the node-disjoint paths for every ordered pair.
type Table struct {
	k      int
	rounds int
	nodes  []graph.NodeID     // ascending
	paths  [][][]graph.NodeID // paths[i*len(nodes)+j]: nodes[i] -> nodes[j]

	// pos[v-nodes[0]] is the index of node v in nodes, -1 for an id
	// between two nodes; nil when the ids are too sparse for a table, and
	// Index binary searches nodes instead.
	pos []int32
}

// maxSlotsPerNode bounds the position table at this many slots per node,
// so ids spread far apart cost a binary search, not a huge table.
const maxSlotsPerNode = 8

// NewTable computes k node-disjoint paths for every ordered pair of nodes
// in g, on one split-node flow net reset per pair. It returns an error if
// some pair cannot support k paths (the network's connectivity is below
// k).
func NewTable(g *graph.Directed, k int) (*Table, error) {
	if k <= 0 {
		return nil, fmt.Errorf("relay: k = %d must be positive", k)
	}
	nodes := g.Nodes()
	t := &Table{k: k, nodes: nodes, paths: make([][][]graph.NodeID, len(nodes)*len(nodes))}
	if n := len(nodes); n > 0 {
		if d := uint64(nodes[n-1]) - uint64(nodes[0]); d < maxSlotsPerNode*uint64(n) {
			t.pos = make([]int32, d+1)
			for i := range t.pos {
				t.pos[i] = -1
			}
			for i, v := range nodes {
				t.pos[v-nodes[0]] = int32(i)
			}
		}
	}
	pn := graph.NewPathNet(g)
	for i, s := range nodes {
		for j, d := range nodes {
			if s == d {
				continue
			}
			paths, err := pn.Paths(s, d, k)
			if err != nil {
				return nil, fmt.Errorf("relay: paths %d->%d: %w", s, d, err)
			}
			if len(paths) < k {
				return nil, fmt.Errorf("relay: only %d node-disjoint paths %d->%d, need %d (connectivity too low)", len(paths), s, d, k)
			}
			t.paths[i*len(nodes)+j] = paths
			for _, p := range paths {
				if hops := len(p) - 1; hops > t.rounds {
					t.rounds = hops
				}
			}
		}
	}
	return t, nil
}

// K returns the number of paths per pair.
func (t *Table) K() int { return t.k }

// Rounds returns the number of simulator rounds one reliable exchange
// needs: the maximum hop count over all paths.
func (t *Table) Rounds() int { return t.rounds }

// NumNodes returns the number of nodes the table covers.
func (t *Table) NumNodes() int { return len(t.nodes) }

// Index returns the position of node v among the table's nodes in
// ascending order, or -1 if the table does not cover v.
func (t *Table) Index(v graph.NodeID) int {
	if t.pos == nil {
		if i, ok := slices.BinarySearch(t.nodes, v); ok {
			return i
		}
		return -1
	}
	// Ids below nodes[0] wrap to large offsets, so one bound check
	// rejects them with the ids past the last node.
	if i := uint64(v) - uint64(t.nodes[0]); i < uint64(len(t.pos)) {
		return int(t.pos[i])
	}
	return -1
}

// Paths returns the precomputed paths from s to d (nil if absent).
func (t *Table) Paths(s, d graph.NodeID) [][]graph.NodeID {
	i, j := t.Index(s), t.Index(d)
	if i < 0 || j < 0 {
		return nil
	}
	return t.paths[i*len(t.nodes)+j]
}

// Packet is the wire format of one path copy. Copies travel as *Packet,
// so an engine moves a pointer, not a boxed copy; engines treat it as an
// opaque body and routers inspect it. A sent packet is immutable: every
// holder (the sender, the transport, each receiver) may keep the pointer,
// so a router forwards a new copy with Hop + 1 instead of advancing the
// one it received.
type Packet struct {
	Origin  graph.NodeID // claimed original sender
	Dest    graph.NodeID // final destination
	PathIdx int          // which of the table's paths this copy follows
	Hop     int          // index in the path of the NEXT recipient
	MsgID   string       // protocol-level message identity
	Payload []byte
}

// Router performs the per-node forwarding and majority-assembly duties.
// A Router is owned by a single node's Process; HandleAll may be called from
// that node's goroutine only.
type Router struct {
	self  graph.NodeID
	table *Table

	mu       sync.Mutex
	received map[recvKey][]pathCopy // (origin,msgID) -> one slot per path
}

type recvKey struct {
	origin graph.NodeID
	msgID  string
}

// pathCopy is the copy of a message that arrived along one path; ok tells
// an empty payload from a copy that never came.
type pathCopy struct {
	payload []byte
	ok      bool
}

// NewRouter returns a router for node self using the given table.
func NewRouter(self graph.NodeID, table *Table) *Router {
	return &Router{self: self, table: table, received: map[recvKey][]pathCopy{}}
}

// Table returns the routing table backing this router.
func (r *Router) Table() *Table { return r.table }

// Send builds the first-hop messages that launch payload toward dest along
// all k paths. The caller includes them in its Step output.
func (r *Router) Send(dest graph.NodeID, msgID string, payload []byte) []sim.Message {
	return r.AppendSend(make([]sim.Message, 0, r.table.k), dest, msgID, payload)
}

// AppendSend is Send appending to out, for callers that address many
// destinations in one step. The k copies share one allocation.
func (r *Router) AppendSend(out []sim.Message, dest graph.NodeID, msgID string, payload []byte) []sim.Message {
	paths := r.table.Paths(r.self, dest)
	pkts := make([]Packet, len(paths))
	for idx, p := range paths {
		pkts[idx] = Packet{Origin: r.self, Dest: dest, PathIdx: idx, Hop: 1, MsgID: msgID, Payload: payload}
		out = append(out, sim.Message{
			From: r.self,
			To:   p[1],
			Bits: int64(len(payload)) * 8,
			Body: &pkts[idx],
		})
	}
	return out
}

// HandleAll processes one inbox. Every relay packet addressed onward
// yields a forwarding message, in inbox order; a copy for which this node
// is the destination is recorded for Majority. Non-packet messages and
// malformed packets are ignored (a Byzantine neighbour can always send
// garbage; honest nodes ignore it). The forwarded copies share one
// allocation.
func (r *Router) HandleAll(inbox []sim.Message) []sim.Message {
	// Every packet not addressed here may forward: an exact count for
	// honest traffic, an upper bound for garbage.
	n := 0
	for _, m := range inbox {
		if pkt, ok := m.Body.(*Packet); ok && pkt != nil && pkt.Dest != r.self {
			n++
		}
	}
	var out []sim.Message
	var fwds []Packet
	if n > 0 {
		out = make([]sim.Message, 0, n)
		fwds = make([]Packet, 0, n)
	}
	for _, m := range inbox {
		fwd, to, ok := r.handle(m)
		if !ok {
			continue
		}
		fwds = append(fwds, fwd)
		out = append(out, sim.Message{
			From: r.self,
			To:   to,
			Bits: int64(len(fwd.Payload)) * 8,
			Body: &fwds[len(fwds)-1],
		})
	}
	return out
}

// handle processes one inbound message: it records a final-hop copy and
// returns the forward of a copy addressed onward, with its next hop.
func (r *Router) handle(m sim.Message) (fwd Packet, to graph.NodeID, ok bool) {
	pkt, isPkt := m.Body.(*Packet)
	if !isPkt || pkt == nil {
		return Packet{}, 0, false
	}
	paths := r.table.Paths(pkt.Origin, pkt.Dest)
	if pkt.PathIdx < 0 || pkt.PathIdx >= len(paths) {
		return Packet{}, 0, false
	}
	path := paths[pkt.PathIdx]
	// The packet claims to be at hop pkt.Hop; we must be that node and the
	// simulator sender must be the previous path node, otherwise the claim
	// is forged and is dropped. A faulty node can therefore only tamper
	// with copies on paths it belongs to.
	if pkt.Hop < 1 || pkt.Hop >= len(path) {
		return Packet{}, 0, false
	}
	if path[pkt.Hop] != r.self || path[pkt.Hop-1] != m.From {
		return Packet{}, 0, false
	}
	if pkt.Dest == r.self {
		// Final hop: record the copy (first copy per path wins).
		if pkt.Hop != len(path)-1 {
			return Packet{}, 0, false
		}
		r.mu.Lock()
		key := recvKey{origin: pkt.Origin, msgID: pkt.MsgID}
		copies := r.received[key]
		if copies == nil {
			copies = make([]pathCopy, len(paths))
			r.received[key] = copies
		}
		if !copies[pkt.PathIdx].ok {
			copies[pkt.PathIdx] = pathCopy{payload: pkt.Payload, ok: true}
		}
		r.mu.Unlock()
		return Packet{}, 0, false
	}
	next := pkt.Hop + 1
	if next >= len(path) {
		return Packet{}, 0, false
	}
	fwd = *pkt
	fwd.Hop = next
	return fwd, path[next], true
}

// Majority returns the payload received from origin for msgID, decided by
// strict majority over the k expected path copies; a copy that never
// arrived votes for nothing. ok reports whether a strict majority existed.
// The returned slice is the copy the router holds (shared with the sender
// on in-process engines): callers must not modify it.
func (r *Router) Majority(origin graph.NodeID, msgID string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	copies := r.received[recvKey{origin: origin, msgID: msgID}]
	// Boyer-Moore vote over the copies that arrived, then an exact count:
	// a payload held by more than half of all k paths is necessarily the
	// surviving candidate.
	var cand []byte
	lead := 0
	for _, c := range copies {
		switch {
		case !c.ok:
		case lead == 0:
			cand, lead = c.payload, 1
		case bytes.Equal(cand, c.payload):
			lead++
		default:
			lead--
		}
	}
	if lead == 0 {
		return nil, false
	}
	count := 0
	for _, c := range copies {
		if c.ok && bytes.Equal(cand, c.payload) {
			count++
		}
	}
	if count*2 <= r.table.k {
		return nil, false
	}
	return cand, true
}
