package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nab/internal/flight"
	"nab/internal/graph"
)

// PeerOptions tunes the multi-process TCP mesh.
type PeerOptions struct {
	// TimeUnit enables send-side per-link token-bucket pacing (the same
	// model as ChanOptions.TimeUnit): even across real sockets, a b-bit
	// frame occupies its link of capacity z_e for b/z_e time units before
	// the next frame may enter it. Zero disables pacing (accounting only).
	TimeUnit time.Duration
	// DialTimeout bounds how long Dial retries a peer that has not come up
	// yet — cluster processes boot in arbitrary order, so the first dials
	// of a full mesh must wait for listeners. Default 20s.
	DialTimeout time.Duration
	// Listener supplies an already-bound listener for the mesh endpoint
	// instead of listening on the configured address — the held-reservation
	// handoff (cluster.ReserveAddrs) that closes the release-then-rebind
	// race of address pre-allocation. The peer takes ownership.
	Listener net.Listener
	// Reconnect makes the mesh survive peer-process crashes: a send onto a
	// dead outbound link drops the frame (counted by LostSends) and redials
	// in the background instead of surfacing a sticky error, and an inbound
	// handshake re-pinning an already-pinned link replaces the dead
	// connection. Dropping is only sound under a recovery protocol that
	// re-executes everything in flight after the peer rejoins (the cluster
	// rejoin rollback); without one, leave Reconnect off so a dead peer
	// fails the run loudly.
	Reconnect bool
	// Chaos interposes seeded hostile network physics (latency, jitter,
	// reorder windows, scheduled partitions, slow links) on every
	// outbound link, local-to-local loops included. All processes of a
	// cluster must share one config (it lives in cluster.json) so the
	// scenario's physics are agreed. Nil means a polite network.
	Chaos *ChaosConfig
}

// Handshake layout: every mesh connection opens with a fixed 21-byte
// frame — 4-byte magic, 1-byte version, 8-byte from, 8-byte to — pinning
// the directed link the connection carries. The accepting side verifies
// the link exists in the topology and terminates at one of its local
// nodes, then answers with a 1-byte verdict. Data frames (wire.go) follow
// on accepted connections, dialer to accepter only.
const (
	peerMagic   = "NABp"
	peerVersion = 2 // 2: step frames, no flags byte in the frame header

	peerAccept    = 0x00
	peerRejectBad = 0x01 // malformed or wrong-version handshake
	peerRejectPhy = 0x02 // link not in topology or not terminating here
)

// Peer is the multi-process Transport: the mesh core for the subset of the
// topology's nodes this process hosts, one TCP listener for inbound links,
// and one socket link per outgoing directed link whose receiver is hosted
// by a remote process (local-to-local links stay in memory). Peer is the
// only code that listens, accepts, handshakes and reads frames: frames for
// links the handshake did not pin, or violating physics, are dropped on
// receipt.
//
// Trust model: the mesh assumes a trusted network boundary. The
// handshake pins each connection to one directed link but does not
// authenticate the dialer, and pacing is enforced on the send side —
// Byzantine behaviour is modelled at the protocol layer (core.Adversary
// hooks scripted in the shared cluster config), not by the transport. A
// deployment across an untrusted network needs an authenticated channel
// (e.g. mTLS) in front of the listeners.
type Peer struct {
	*mesh
	addrs map[graph.NodeID]string
	opt   PeerOptions

	listener net.Listener

	// Guarded by the mesh's mu.
	socks    []*link                      // outbound socket links, for Reestablish and teardown
	accepted map[net.Conn][2]graph.NodeID // live inbound connections and the link each pinned
	recvd    map[[2]graph.NodeID]int64    // receive-side charges from remote peers

	dropped atomic.Int64
	lost    atomic.Int64 // frames dropped on down outbound links (Reconnect)
}

// NewPeer opens this process's mesh endpoint: a listener on listenAddr
// for inbound links, and inboxes for the local nodes. addrs must name the
// listen address of every node's hosting process (local nodes included).
func NewPeer(g *graph.Directed, localNodes []graph.NodeID, addrs map[graph.NodeID]string, listenAddr string, opt PeerOptions) (*Peer, error) {
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 20 * time.Second
	}
	p := &Peer{
		mesh:     newMesh(g, localNodes, opt.TimeUnit, opt.Chaos),
		addrs:    map[graph.NodeID]string{},
		opt:      opt,
		accepted: map[net.Conn][2]graph.NodeID{},
		recvd:    map[[2]graph.NodeID]int64{},
	}
	if p.chaosErr != nil {
		return nil, p.chaosErr
	}
	for _, v := range localNodes {
		if !p.g.HasNode(v) {
			return nil, fmt.Errorf("transport: local node %d not in topology", v)
		}
	}
	if len(p.inboxes) == 0 {
		return nil, fmt.Errorf("transport: peer hosts no nodes")
	}
	for _, v := range p.g.Nodes() {
		a, ok := addrs[v]
		if !ok {
			return nil, fmt.Errorf("transport: no address for node %d", v)
		}
		p.addrs[v] = a
	}
	l := opt.Listener
	if l == nil {
		var err error
		l, err = net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: peer listen %s: %w", listenAddr, err)
		}
	}
	p.listener = l
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address the peer actually listens on (resolving an
// ephemeral ":0" request).
func (p *Peer) Addr() string { return p.listener.Addr().String() }

func (p *Peer) acceptLoop() {
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		p.accepted[conn] = [2]graph.NodeID{} // pins nothing until the handshake
		p.mu.Unlock()
		go p.serveConn(conn)
	}
}

// serveConn validates one inbound link handshake, then pumps its frames.
func (p *Peer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		p.mu.Lock()
		delete(p.accepted, conn)
		p.mu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(p.opt.DialTimeout))
	from, to, err := readHandshake(conn)
	inbox, local := p.inboxes[to]
	verdict := byte(peerAccept)
	if err != nil {
		verdict = peerRejectBad
	} else if !p.g.HasEdge(from, to) || !local {
		verdict = peerRejectPhy
	}
	key := [2]graph.NodeID{from, to}
	if verdict == peerAccept {
		p.mu.Lock()
		if p.opt.Reconnect {
			// Re-pin: a restarted peer process redials every link it owns;
			// the fresh connection replaces the dead one (whose reader exits
			// when we close it) so the link heals without tearing the mesh
			// down. It happens before the verdict goes out: the dialer opens
			// the link's next connection only after reading the verdict, so
			// a stale re-pin can never close its successor.
			for old, pinned := range p.accepted {
				if pinned == key {
					old.Close()
				}
			}
		}
		p.accepted[conn] = key
		p.mu.Unlock()
	}
	if _, err := conn.Write([]byte{verdict}); err != nil || verdict != peerAccept {
		return
	}
	conn.SetReadDeadline(time.Time{})
	br := bufio.NewReader(conn)
	for {
		m, err := ReadFrame(br)
		if err != nil {
			return // connection closed or garbage framing
		}
		// The handshake pinned the link; frames claiming any other
		// coordinates, or negative charges, violate physics.
		if m.From != from || m.To != to || m.Bits < 0 {
			p.dropped.Add(1)
			mDropped.Inc()
			continue
		}
		if m.Bits > 0 {
			p.mu.Lock()
			p.recvd[key] += m.Bits
			p.mu.Unlock()
		}
		select {
		case inbox <- m:
		case <-p.closed:
			return
		}
	}
}

func readHandshake(conn net.Conn) (from, to graph.NodeID, err error) {
	var buf [21]byte
	if _, err = io.ReadFull(conn, buf[:]); err != nil {
		return 0, 0, err
	}
	if string(buf[:4]) != peerMagic || buf[4] != peerVersion {
		return 0, 0, fmt.Errorf("transport: bad handshake magic/version")
	}
	from = graph.NodeID(int64(binary.BigEndian.Uint64(buf[5:13])))
	to = graph.NodeID(int64(binary.BigEndian.Uint64(buf[13:21])))
	return from, to, nil
}

func writeHandshake(conn net.Conn, from, to graph.NodeID) error {
	var buf [21]byte
	copy(buf[:4], peerMagic)
	buf[4] = peerVersion
	binary.BigEndian.PutUint64(buf[5:13], uint64(int64(from)))
	binary.BigEndian.PutUint64(buf[13:21], uint64(int64(to)))
	if _, err := conn.Write(buf[:]); err != nil {
		return err
	}
	var verdict [1]byte
	if _, err := io.ReadFull(conn, verdict[:]); err != nil {
		return err
	}
	if verdict[0] != peerAccept {
		return fmt.Errorf("transport: peer rejected link (%d,%d) with code %d", from, to, verdict[0])
	}
	return nil
}

// Dial implements Transport: the sender half of link (from, to). from
// must be hosted here; a remote receiver gets one dedicated TCP connection
// (retried with backoff while the cluster boots), a local one an in-memory
// enqueue. Dialing a link again returns the same Link.
func (p *Peer) Dial(from, to graph.NodeID) (Link, error) {
	return p.dial(from, to, func(l *link) error {
		l.sock = &sock{p: p}
		if err := l.connect(); err != nil {
			return err
		}
		p.mu.Lock()
		p.socks = append(p.socks, l)
		p.mu.Unlock()
		return nil
	})
}

func (p *Peer) sockLinks() []*link {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*link(nil), p.socks...)
}

// Reestablish force-redials every outbound remote link (Reconnect mode):
// the cluster rejoin protocol calls it during the rewind phase, because a
// connection to a peer that was killed and restarted can look healthy
// until the first post-resume write discovers the dead socket — and by
// then the frame is gone. Returns once every link carries a fresh,
// handshaken connection.
func (p *Peer) Reestablish() error {
	links := p.sockLinks()
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.reestablish()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DialRetry connects to addr with jittered exponential backoff (25ms
// doubling to a 500ms cap) until timeout — the boot-order-independent
// dial every cluster endpoint needs, since peer processes come up in
// arbitrary order. A close of cancel (when non-nil) aborts the wait with
// ErrClosed.
//
// The jitter is seeded per (process, address, attempt): when n-1 peers
// all watch one restarted coordinator, their retry schedules decorrelate
// instead of stampeding the fresh listener's accept backlog in lockstep
// — and each process's schedule is still deterministic, so a replayed
// scenario dials on the same beat.
func DialRetry(addr string, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		d := time.Until(deadline)
		if d < 10*time.Millisecond {
			// Floor the final attempt's budget: DialTimeout treats <= 0
			// as "no timeout", and a micro-budget dial cannot complete a
			// handshake anyway.
			d = 10 * time.Millisecond
		}
		conn, err := net.DialTimeout("tcp", addr, d)
		if err == nil {
			return conn, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, err
		}
		// Wait the jittered backoff, but never past the deadline: when
		// now+backoff barely overshoots it, the link still deserves one
		// final attempt at the deadline rather than giving up early.
		wait := backoff + retryJitter(addr, attempt, backoff)
		if wait > remaining {
			wait = remaining
		}
		select {
		case <-time.After(wait):
		case <-cancel:
			return nil, ErrClosed
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// dialSalt decorrelates retry schedules across OS processes while staying
// fixed within one, so a given process's dial cadence is reproducible.
var dialSalt = splitmix64(uint64(os.Getpid()))

// retryJitter draws a deterministic jitter in [0, backoff) for one
// (process, address, attempt).
func retryJitter(addr string, attempt int, backoff time.Duration) time.Duration {
	h := dialSalt
	for i := 0; i < len(addr); i++ {
		h = splitmix64(h ^ uint64(addr[i]))
	}
	h = splitmix64(h ^ uint64(attempt))
	return time.Duration(unitFromHash(h) * float64(backoff))
}

// LinkBits implements Transport: send-side charges for local senders plus
// receive-side charges for remote-to-local links, i.e. every link this
// process can observe, each counted once.
func (p *Peer) LinkBits() map[[2]graph.NodeID]int64 {
	out := p.mesh.LinkBits()
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, b := range p.recvd {
		out[key] += b
	}
	return out
}

// Dropped returns how many inbound frames violated their link pinning.
func (p *Peer) Dropped() int64 { return p.dropped.Load() }

// LostSends returns how many outbound frames were dropped on down links
// while Reconnect was healing them — work the rejoin rollback re-executes.
func (p *Peer) LostSends() int64 { return p.lost.Load() }

// Close implements Transport: every link flushes its queue, best effort
// within one second shared by every link, then the listener and every
// connection close. A frame still queued when the second runs out meets a
// dropped socket and is discarded. Sends from then on return ErrClosed.
func (p *Peer) Close() error {
	if !p.close() {
		return nil
	}
	for _, l := range p.sockLinks() {
		l.sock.mu.Lock()
		l.sock.dropLocked()
		l.sock.mu.Unlock()
	}
	p.listener.Close()
	p.mu.Lock()
	for c := range p.accepted {
		c.Close()
	}
	p.mu.Unlock()
	return nil
}

// sock is the socket half of a link whose receiver is hosted by a remote
// peer: a handshake-pinned TCP connection and the buffered writer the
// link goroutine writes released frames into. PeerOptions.Reconnect
// decides what a write failure means (fail).
type sock struct {
	p *Peer

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer // nil while down
	dialing bool

	dirty *bufio.Writer // written since its last flush; link goroutine only
}

// write puts one released frame into the current connection's buffer.
func (l *link) write(m *Message) {
	s := l.sock
	s.mu.Lock()
	bw := s.bw
	s.mu.Unlock()
	if bw != nil {
		err := WriteFrame(bw, m)
		if err == nil {
			mWriterFrames.Inc()
			s.dirty = bw
			return
		}
		l.fail(bw, err)
	}
	if s.p.opt.Reconnect { // released into an outage
		s.p.lost.Add(1)
		mSendsLost.Inc()
	}
}

// flush pushes buffered frames onto the wire; the link goroutine calls it
// whenever no frame is due.
func (l *link) flush() {
	if l.sock == nil || l.sock.dirty == nil {
		return
	}
	bw := l.sock.dirty
	l.sock.dirty = nil
	if err := bw.Flush(); err != nil {
		l.fail(bw, err)
		return
	}
	mFlushes.Inc()
}

// fail handles a write error on bw. Without Reconnect the error is sticky
// for every later Send, so a dead peer fails the run loudly. With it, the
// link drops the connection and starts (at most one) background redial,
// and frames released meanwhile are dropped and counted.
func (l *link) fail(bw *bufio.Writer, err error) {
	if !l.sock.p.opt.Reconnect {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		return
	}
	s := l.sock
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw != bw {
		return // a writer a reconnect already replaced
	}
	s.dropLocked()
	l.record(flight.EvLinkDown)
	if !s.dialing {
		s.dialing = true
		go l.redial()
	}
}

// connect dials (retrying while the remote boots), handshakes and
// installs a fresh connection on the link.
func (l *link) connect() error {
	s, from, to := l.sock, l.key[0], l.key[1]
	conn, err := DialRetry(s.p.addrs[to], s.p.opt.DialTimeout, s.p.closed)
	if err != nil {
		return fmt.Errorf("transport: dial link (%d,%d): %w", from, to, err)
	}
	if err := writeHandshake(conn, from, to); err != nil {
		conn.Close()
		return fmt.Errorf("transport: handshake link (%d,%d): %w", from, to, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.p.closed: // Close may already have swept past this link
		conn.Close()
		return ErrClosed
	default:
	}
	mDials.Inc()
	s.conn, s.bw, s.dialing = conn, bufio.NewWriter(conn), false
	return nil
}

// dropLocked closes the link's connection.
func (s *sock) dropLocked() {
	if s.conn != nil {
		s.conn.Close()
	}
	s.conn, s.bw = nil, nil
}

// redial re-establishes the link, retrying until the transport closes.
// The retry beat is jittered like DialRetry's: every outbound link of
// every survivor redials a crashed peer, and identical 100ms beats would
// hammer the restarted listener in synchronized waves.
func (l *link) redial() {
	for attempt := 0; ; attempt++ {
		if l.connect() == nil {
			mRedials.Inc()
			l.record(flight.EvLinkUp)
			return
		}
		pause := 100*time.Millisecond + retryJitter(linkString(l.key), attempt, 100*time.Millisecond)
		select {
		case <-l.c.closed:
			return
		case <-time.After(pause):
		}
	}
}

// reestablish retires the link's pre-existing connection —
// healthy-looking or not — and dials a fresh one synchronously. If a
// background redial is in flight (or completes while we wait), its
// result IS adopted: that dial succeeded against a live listener, so a
// second handshake would be redundant.
func (l *link) reestablish() error {
	s := l.sock
	s.mu.Lock()
	entry := s.bw
	s.mu.Unlock()
	for {
		s.mu.Lock()
		if s.dialing {
			s.mu.Unlock()
			select {
			case <-l.c.closed:
				return ErrClosed
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		if s.bw != nil && s.bw != entry {
			// A redial installed a fresh connection after we entered:
			// adopt it.
			s.mu.Unlock()
			return nil
		}
		s.dropLocked()
		s.dialing = true
		s.mu.Unlock()
		if err := l.connect(); err != nil {
			s.mu.Lock()
			s.dialing = false
			s.mu.Unlock()
			return err
		}
		mRedials.Inc()
		l.record(flight.EvLinkUp)
		return nil
	}
}

// record notes a change of the link's connection in the flight recorder.
func (l *link) record(t flight.EventType) {
	flight.Record(flight.Event{Type: t, Node: int32(l.key[0]), Peer: int32(l.key[1])})
}
