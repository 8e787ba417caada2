package transport

import (
	"fmt"
	"sync"
	"time"

	"nab/internal/graph"
)

// mesh is the in-memory core every Transport is built on (see the package
// comment): the inboxes of the nodes hosted here, one cached state per
// directed link, Recv, send-side LinkBits and the close signal.
type mesh struct {
	g     *graph.Directed
	tu    time.Duration
	burst int64

	inboxes  map[graph.NodeID]chan *Message // fixed at construction
	chaos    *chaosState
	chaosErr error

	mu    sync.Mutex // guards links, and the bookkeeping of a Peer built on this core
	links map[[2]graph.NodeID]*linkState

	closed    chan struct{}
	closeOnce sync.Once
}

// newMesh builds the core over topology g for the nodes hosted here. A bad
// chaos config is kept in chaosErr: it fails every dial.
func newMesh(g *graph.Directed, hosted []graph.NodeID, tu time.Duration, burst int64, buffer int, chaos *ChaosConfig) *mesh {
	if buffer <= 0 {
		buffer = 4096
	}
	c := &mesh{
		g:       g.Clone(),
		tu:      tu,
		burst:   burst,
		inboxes: map[graph.NodeID]chan *Message{},
		links:   map[[2]graph.NodeID]*linkState{},
		closed:  make(chan struct{}),
	}
	c.chaos, c.chaosErr = newChaosState(chaos, c.closed)
	for _, v := range hosted {
		c.inboxes[v] = make(chan *Message, buffer)
	}
	return c
}

// linkState is the one state of a directed link, shared by every dialer:
// the token bucket stays per-link no matter how many senders share it.
type linkState struct {
	key  [2]graph.NodeID
	pace *pacer
	lm   linkMetrics

	dialMu sync.Mutex
	dialed Link // the (chaos-wrapped) view handed to dialers; nil until opened
}

// admit is the preamble of every Send: the frame must carry its link's
// coordinates and a non-negative charge, and pays that charge to the token
// bucket, which serializes the link — concurrent senders queue behind each
// other exactly as frames on a wire would.
func (s *linkState) admit(m *Message) error {
	if m.From != s.key[0] || m.To != s.key[1] {
		return fmt.Errorf("transport: frame (%d,%d) on link (%d,%d)", m.From, m.To, s.key[0], s.key[1])
	}
	if m.Bits < 0 {
		return fmt.Errorf("transport: negative bit charge %d", m.Bits)
	}
	if m.Bits > 0 {
		s.pace.charge(m.Bits)
	}
	return nil
}

// dial returns the sender half of link (from, to), opening it on first
// use: an in-memory link when the receiver is hosted here, otherwise
// whatever remote opens (nil: every receiver is hosted). Repeat dialers
// get the same Link, so they share the token bucket and — under chaos —
// one delivery queue. A failed open is retried by the next dial.
func (c *mesh) dial(from, to graph.NodeID, remote func(*linkState) (Link, error)) (Link, error) {
	if !c.g.HasEdge(from, to) {
		return nil, fmt.Errorf("transport: no link (%d,%d) in topology", from, to)
	}
	if _, ok := c.inboxes[from]; !ok {
		return nil, fmt.Errorf("transport: node %d is not hosted here", from)
	}
	if c.chaosErr != nil {
		return nil, c.chaosErr
	}
	key := [2]graph.NodeID{from, to}
	c.mu.Lock()
	s := c.links[key]
	if s == nil {
		s = &linkState{key: key, pace: newPacer(c.g.Cap(from, to), c.tu, c.burst), lm: linkMetricsFor(from, to)}
		c.links[key] = s
	}
	c.mu.Unlock()
	// Opening a socket link can wait out a booting peer; only this link's
	// dialers queue behind it.
	s.dialMu.Lock()
	defer s.dialMu.Unlock()
	if s.dialed == nil {
		var l Link
		if inbox, ok := c.inboxes[to]; ok {
			l = &inboxLink{linkState: s, inbox: inbox, closed: c.closed}
		} else {
			var err error
			if l, err = remote(s); err != nil {
				return nil, err
			}
		}
		// Chaos wraps outside the pacer and the reconnect machinery: a
		// delayed frame pays its capacity charge, and enters whatever
		// connection the link then carries, when it is finally released.
		s.dialed = c.chaos.wrap(l, from, to)
	}
	return s.dialed, nil
}

// Recv implements Transport for the nodes hosted here.
func (c *mesh) Recv(self graph.NodeID) (*Message, error) {
	inbox, ok := c.inboxes[self]
	if !ok {
		return nil, fmt.Errorf("transport: node %d is not hosted here", self)
	}
	select {
	case m := <-inbox:
		return m, nil
	case <-c.closed:
		// Drain what was already delivered before reporting closure.
		select {
		case m := <-inbox:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

// LinkBits implements Transport: the send-side charges of every link
// dialed here.
func (c *mesh) LinkBits() map[[2]graph.NodeID]int64 {
	out := map[[2]graph.NodeID]int64{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, s := range c.links {
		out[key] = s.pace.Bits()
	}
	return out
}

// inboxLink is a directed link whose receiver is hosted here: the link
// state in front of the recipient's inbox, no socket.
type inboxLink struct {
	*linkState
	inbox  chan *Message
	closed <-chan struct{}
}

// Send implements Link.
func (l *inboxLink) Send(m *Message) error {
	if err := l.admit(m); err != nil {
		return err
	}
	select {
	case l.inbox <- m:
		l.lm.count(m)
		return nil
	case <-l.closed:
		return ErrClosed
	}
}
