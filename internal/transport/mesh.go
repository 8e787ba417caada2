package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nab/internal/graph"
)

// queueDepth bounds every link's queue and every node's inbox, in frames.
// A full link queue blocks Send. Inboxes serve only callers that never
// Serve; a full one blocks its sinks until Recv drains it. Neither bound is
// the token bucket's, and neither bounds bytes.
const queueDepth = 4096

// mesh is the in-memory core every Transport is built on (see the package
// comment): the delivery point of the nodes hosted here (the Serve handler,
// or their inboxes for a caller that Recvs instead), one link per directed
// link, Recv, send-side LinkBits and the close signal.
type mesh struct {
	g  *graph.Directed
	tu time.Duration

	inboxes  map[graph.NodeID]chan *Message // fixed at construction
	chaos    *ChaosConfig
	chaosErr error     // an invalid chaos config fails every dial
	epoch    time.Time // chaos partition schedules count from construction

	mu    sync.Mutex // guards links, goroutine starts against close, and the bookkeeping of a Peer built on this core
	links map[[2]graph.NodeID]*link

	closed    chan struct{}
	closeOnce sync.Once
	running   sync.WaitGroup // link queue goroutines

	// serveMu is read-held around every handler call; close write-locks
	// it to set shut, so no call runs once Close has returned.
	serveMu     sync.RWMutex
	handler     func(*Message) // set once by Serve
	shut        bool
	reading     chan struct{} // closed by Serve or the first Recv: a Peer's socket readers start then
	readingOnce sync.Once
}

// newMesh builds the core over topology g for the nodes hosted here.
func newMesh(g *graph.Directed, hosted []graph.NodeID, tu time.Duration, chaos *ChaosConfig) *mesh {
	c := &mesh{
		g:        g.Clone(),
		tu:       tu,
		inboxes:  map[graph.NodeID]chan *Message{},
		chaos:    chaos,
		chaosErr: chaos.Validate(),
		epoch:    time.Now(),
		links:    map[[2]graph.NodeID]*link{},
		closed:   make(chan struct{}),
		reading:  make(chan struct{}),
	}
	for _, v := range hosted {
		c.inboxes[v] = make(chan *Message, queueDepth)
	}
	return c
}

// link is the one state and the one Send of a directed link, shared by
// every dialer: its sink is the mesh's delivery point when the receiver is
// hosted here, a socket (peer.go) otherwise. Whether Send delivers inline
// or through the link's queue is fixed when the link opens.
type link struct {
	key   [2]graph.NodeID
	c     *mesh
	lm    linkMetrics
	bits  atomic.Int64 // cumulative capacity charge
	chaos *linkChaos   // nil: no chaos physics on this link

	dialMu sync.Mutex
	open   bool
	direct bool  // unpaced, chaos-free in-memory link: Send delivers inline
	sock   *sock // nil for an in-memory link

	// The queue of any other link. Its goroutine, started by the first
	// Send, alone touches pace and the socket writer.
	slots chan struct{} // one token per queued frame: the queueDepth bound
	wake  chan struct{}
	pace  pacer

	mu      sync.Mutex
	q       frameQueue
	seq     uint64 // frames queued so far: the send-order tiebreak
	started bool
	err     error // sticky: a socket error without Reconnect, or ErrClosed once flushed
}

// dial returns the sender half of link (from, to), opening it on first
// use: an in-memory link when the receiver is hosted here, otherwise
// whatever remote opens (nil: every receiver is hosted). Repeat dialers
// get the same Link, so they share one queue and one token bucket. A
// failed open is retried by the next dial.
func (c *mesh) dial(from, to graph.NodeID, remote func(*link) error) (Link, error) {
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
	l := c.links[key]
	if l == nil {
		capBits := c.g.Cap(from, to)
		l = &link{
			key: key, c: c, lm: linkMetricsFor(from, to), chaos: c.chaos.forLink(from, to, c.epoch),
			slots: make(chan struct{}, queueDepth), wake: make(chan struct{}, 1),
			pace: pacer{capBits: capBits, tu: c.tu, tokens: float64(capBits), last: time.Now()},
		}
		c.links[key] = l
	}
	c.mu.Unlock()
	// Opening a socket link can wait out a booting peer; only this link's
	// dialers queue behind it.
	l.dialMu.Lock()
	defer l.dialMu.Unlock()
	if !l.open {
		_, local := c.inboxes[to]
		if !local {
			if err := remote(l); err != nil {
				return nil, err
			}
		}
		l.direct = local && c.tu <= 0 && l.chaos == nil
		l.open = true
	}
	return l, nil
}

// Send implements Link. Every frame passes admit; a direct link then
// delivers it on the caller's goroutine, any other link appends it to its
// queue and returns without waiting for release time or token bucket.
func (l *link) Send(m *Message) error {
	if err := l.admit(m); err != nil {
		return err
	}
	if l.direct {
		if !l.c.deliver(m) {
			return ErrClosed
		}
		l.lm.count(m)
		return nil
	}
	select {
	case l.slots <- struct{}{}:
	case <-l.c.closed:
		return ErrClosed
	}
	l.mu.Lock()
	err := l.enqueueLocked(m)
	l.mu.Unlock()
	if err != nil {
		<-l.slots
		return err
	}
	l.lm.count(m)
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

// admit is the preamble of every Send: the transport must be open, and the
// frame must carry its link's coordinates and a non-negative charge, which
// is metered. The frame counters move only once the frame is accepted.
func (l *link) admit(m *Message) error {
	select {
	case <-l.c.closed:
		return ErrClosed
	default:
	}
	if m.From != l.key[0] || m.To != l.key[1] {
		return fmt.Errorf("transport: frame (%d,%d) on link (%d,%d)", m.From, m.To, l.key[0], l.key[1])
	}
	if m.Bits < 0 {
		return fmt.Errorf("transport: negative bit charge %d", m.Bits)
	}
	l.bits.Add(m.Bits)
	return nil
}

// enqueueLocked stamps m with its chaos release time (none on a polite
// link, so the queue is FIFO) and queues it, starting the link goroutine
// on first use.
func (l *link) enqueueLocked(m *Message) error {
	if l.err != nil {
		return l.err
	}
	if !l.started {
		if !l.c.start(l.run) {
			return ErrClosed
		}
		l.started = true
	}
	var at time.Time
	if l.chaos != nil {
		at = l.chaos.release(m, time.Now())
	}
	l.seq++
	l.q.push(queued{m: m, at: at, seq: l.seq})
	return nil
}

// start runs a link goroutine unless the transport has closed; Close waits
// for every goroutine started before it.
func (c *mesh) start(run func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return false
	default:
	}
	c.running.Add(1)
	go run()
	return true
}

// run is the link goroutine: it releases queued frames in (release time,
// send order) order, waits out each one's chaos delay and then its
// token-bucket deficit, and delivers it, flushing the socket whenever no
// frame is due. Once Close fires it releases the rest without waiting.
func (l *link) run() {
	defer l.c.running.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	closing := false
	for {
		var m *Message
		wait := time.Duration(-1) // empty queue: sleep until a Send wakes us
		l.mu.Lock()
		if len(l.q) > 0 {
			if wait = time.Until(l.q[0].at); wait <= 0 || closing {
				m = l.q.pop()
			}
		} else if closing {
			l.err = ErrClosed // refuse Sends that raced with the close signal
		}
		l.mu.Unlock()
		switch {
		case m != nil:
			<-l.slots
			if d := l.pace.charge(m.Bits); d > 0 && !closing {
				mPacerStall.Observe(d.Seconds())
				l.flush()
				closing = !l.sleep(timer, d, nil)
			}
			l.deliver(m)
		case closing:
			l.flush()
			return
		default:
			l.flush()
			closing = !l.sleep(timer, wait, l.wake)
		}
	}
}

// sleep waits d (forever if negative) or until wake fires; false means
// the transport closed.
func (l *link) sleep(t *time.Timer, d time.Duration, wake <-chan struct{}) bool {
	var fire <-chan time.Time
	if d >= 0 {
		t.Reset(d)
		fire = t.C
	}
	defer t.Stop()
	select {
	case <-fire:
	case <-wake:
	case <-l.c.closed:
		return false
	}
	return true
}

// deliver hands one released frame to the link's sink.
func (l *link) deliver(m *Message) {
	if l.sock != nil {
		l.write(m)
		return
	}
	l.c.deliver(m)
}

// deliver is the one delivery point of the nodes hosted here: every sink
// calls it with a frame addressed to one of them. After Serve it calls the
// handler; a caller that never Serves finds the frame in the node's inbox.
// It reports false once the transport has closed.
func (c *mesh) deliver(m *Message) bool {
	c.serveMu.RLock()
	if h := c.handler; h != nil {
		shut := c.shut
		if !shut {
			h(m)
		}
		c.serveMu.RUnlock()
		return !shut
	}
	c.serveMu.RUnlock()
	inbox := c.inboxes[m.To]
	select {
	case inbox <- m:
		return true
	case <-c.closed:
		// Closing flushes without blocking: a full inbox has no reader
		// left to wait for.
		select {
		case inbox <- m:
		default:
		}
		return false
	}
}

// Serve implements Transport: it stores the handler, then lets the socket
// readers start.
func (c *mesh) Serve(deliver func(*Message)) {
	c.serveMu.Lock()
	if c.handler != nil {
		c.serveMu.Unlock()
		panic("transport: Serve called twice")
	}
	c.handler = deliver
	c.serveMu.Unlock()
	c.startReading()
}

// startReading releases the socket readers, once.
func (c *mesh) startReading() { c.readingOnce.Do(func() { close(c.reading) }) }

type queued struct {
	m   *Message
	at  time.Time // chaos release time; zero on a polite link
	seq uint64    // send order
}

// frameQueue is a link's queue: a binary min-heap on (release time, send
// order), typed so queueing boxes nothing. A polite link's release times
// are all zero, so it pops in send order and each push is an append.
type frameQueue []queued

func (q frameQueue) less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q *frameQueue) push(f queued) {
	*q = append(*q, f)
	h := *q
	for i := len(h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

func (q *frameQueue) pop() *Message {
	h := *q
	m, n := h[0].m, len(h)-1
	h[0], h[n] = h[n], queued{}
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if c >= n || !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return m
}

// close signals Close to every link and waits — one second at most, shared
// by every link — for the link goroutines to flush their queues (a socket
// write wedged on a dead peer is unblocked by the connection close that
// follows, and frames still queued then are discarded). It reports
// whether this call was the first.
func (c *mesh) close() bool {
	first := false
	c.closeOnce.Do(func() {
		first = true
		c.mu.Lock()
		close(c.closed)
		c.mu.Unlock()
		c.serveMu.Lock()
		c.shut = true
		c.serveMu.Unlock()
		flushed := make(chan struct{})
		go func() {
			c.running.Wait()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-time.After(time.Second):
		}
	})
	return first
}

// Recv implements Transport for the nodes hosted here.
func (c *mesh) Recv(self graph.NodeID) (*Message, error) {
	inbox, ok := c.inboxes[self]
	if !ok {
		return nil, fmt.Errorf("transport: node %d is not hosted here", self)
	}
	c.serveMu.RLock()
	served := c.handler != nil
	c.serveMu.RUnlock()
	if served {
		return nil, errServed
	}
	c.startReading()
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

// errServed is Recv's answer once a Serve handler receives every frame.
var errServed = errors.New("transport: Recv after Serve; the handler receives every frame")

// LinkBits implements Transport: the send-side charges of every link
// dialed here.
func (c *mesh) LinkBits() map[[2]graph.NodeID]int64 {
	out := map[[2]graph.NodeID]int64{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, l := range c.links {
		out[key] = l.bits.Load()
	}
	return out
}
