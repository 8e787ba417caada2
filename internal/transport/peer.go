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

	"nab/internal/graph"
)

// PeerOptions tunes the multi-process TCP mesh.
type PeerOptions struct {
	// TimeUnit enables send-side per-link token-bucket pacing (the same
	// model as ChanOptions.TimeUnit): even across real sockets, a b-bit
	// frame occupies its link of capacity z_e for b/z_e time units before
	// the next frame may enter it. Zero disables pacing (accounting only).
	TimeUnit time.Duration
	// Burst is the token bucket depth in bits; 0 defaults to z_e.
	Burst int64
	// DialTimeout bounds how long Dial retries a peer that has not come up
	// yet — cluster processes boot in arbitrary order, so the first dials
	// of a full mesh must wait for listeners. Default 20s.
	DialTimeout time.Duration
	// Buffer is the per-node inbox depth; 0 defaults to 4096 frames.
	Buffer int
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
	peerVersion = 1

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
	socks    []*sockLink                  // outbound socket links, for Reestablish and teardown
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
		mesh:     newMesh(g, localNodes, opt.TimeUnit, opt.Burst, opt.Buffer, opt.Chaos),
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
		if !m.Marker && m.Bits > 0 {
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
	return p.dial(from, to, func(s *linkState) (Link, error) {
		l := &sockLink{linkState: s, p: p}
		if err := l.connect(); err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.socks = append(p.socks, l)
		p.mu.Unlock()
		return l, nil
	})
}

func (p *Peer) sockLinks() []*sockLink {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*sockLink(nil), p.socks...)
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
		go func(i int, l *sockLink) {
			defer wg.Done()
			errs[i] = l.reestablish()
		}(i, l)
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

// Close implements Transport: signals every outbound link's coalescing
// writer, waits for each one's final drain and flush (bounded — a writer
// wedged on a dead peer is unblocked by the connection close behind the
// wait), then closes the listener and every connection. Frames accepted
// by Send before Close reach the socket.
func (p *Peer) Close() error {
	p.closeOnce.Do(func() {
		close(p.closed)
		for _, l := range p.sockLinks() {
			l.mu.Lock()
			fw := l.fw
			l.mu.Unlock()
			if fw != nil {
				fw.join(time.Second)
			}
			l.mu.Lock()
			l.dropLocked()
			l.mu.Unlock()
		}
		p.listener.Close()
		p.mu.Lock()
		for c := range p.accepted {
			c.Close()
		}
		p.mu.Unlock()
	})
	return nil
}

// sockLink is a directed link whose receiver is hosted by a remote peer:
// the link state in front of a handshake-pinned TCP connection and its
// coalescing writer. What a write failure means is PeerOptions.Reconnect:
// off, the error is sticky and surfaces from Send, so a dead peer fails
// the run loudly; on, the link marks itself down, drops the frame, and
// redials in the background until the peer's listener answers again —
// senders never observe a peer crash as an error, and frames emitted into
// the outage are counted (LostSends) and recovered by the cluster
// rollback, which re-executes every uncommitted instance once the peer
// rejoins.
type sockLink struct {
	*linkState
	p *Peer

	mu      sync.Mutex
	conn    net.Conn
	fw      *frameWriter // nil while down
	dialing bool
}

// Send implements Link: pace, then queue onto the link's coalescing
// writer, which batches bursts into single syscalls.
func (l *sockLink) Send(m *Message) error {
	if err := l.admit(m); err != nil {
		return err
	}
	select {
	case <-l.p.closed:
		return ErrClosed
	default:
	}
	l.mu.Lock()
	fw := l.fw
	l.mu.Unlock()
	if fw != nil {
		err := fw.enqueue(m)
		if err == nil {
			l.lm.count(m)
			return nil
		}
		if err == ErrClosed || !l.p.opt.Reconnect {
			return err
		}
		l.markDown(fw)
	}
	l.p.lost.Add(1)
	mSendsLost.Inc()
	return nil
}

// connect dials (retrying while the remote boots), handshakes and
// installs a fresh connection and coalescing writer on the link.
func (l *sockLink) connect() error {
	from, to := l.key[0], l.key[1]
	conn, err := DialRetry(l.p.addrs[to], l.p.opt.DialTimeout, l.p.closed)
	if err != nil {
		return fmt.Errorf("transport: dial link (%d,%d): %w", from, to, err)
	}
	if err := writeHandshake(conn, from, to); err != nil {
		conn.Close()
		return fmt.Errorf("transport: handshake link (%d,%d): %w", from, to, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.p.closed: // Close may already have swept past this link
		conn.Close()
		return ErrClosed
	default:
	}
	mDials.Inc()
	l.conn, l.fw, l.dialing = conn, newFrameWriter(bufio.NewWriter(conn), l.p.closed), false
	return nil
}

// dropLocked retires the link's writer and closes its connection.
func (l *sockLink) dropLocked() {
	if l.fw != nil {
		l.fw.retire()
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn, l.fw = nil, nil
}

// markDown retires a failed writer and starts (at most one) background
// redial.
func (l *sockLink) markDown(failed *frameWriter) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fw != failed {
		return // another Send already retired it
	}
	l.dropLocked()
	reconnLog.Info("link-down", "link", linkString(l.key))
	if !l.dialing {
		l.dialing = true
		go l.redial()
	}
}

// redial re-establishes the link, retrying until the transport closes.
// The retry beat is jittered like DialRetry's: every outbound link of
// every survivor redials a crashed peer, and identical 100ms beats would
// hammer the restarted listener in synchronized waves.
func (l *sockLink) redial() {
	for attempt := 0; ; attempt++ {
		if l.connect() == nil {
			mRedials.Inc()
			reconnLog.Info("link-redialed", "link", linkString(l.key))
			return
		}
		pause := 100*time.Millisecond + retryJitter(linkString(l.key), attempt, 100*time.Millisecond)
		select {
		case <-l.p.closed:
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
func (l *sockLink) reestablish() error {
	l.mu.Lock()
	entryFw := l.fw
	l.mu.Unlock()
	for {
		l.mu.Lock()
		if l.dialing {
			l.mu.Unlock()
			select {
			case <-l.p.closed:
				return ErrClosed
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		if l.fw != nil && l.fw != entryFw {
			// A redial installed a fresh connection after we entered:
			// adopt it.
			l.mu.Unlock()
			return nil
		}
		l.dropLocked()
		l.dialing = true
		l.mu.Unlock()
		if err := l.connect(); err != nil {
			l.mu.Lock()
			l.dialing = false
			l.mu.Unlock()
			return err
		}
		mRedials.Inc()
		reconnLog.Debug("link-reestablished", "link", linkString(l.key))
		return nil
	}
}
