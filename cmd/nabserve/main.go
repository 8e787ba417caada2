// Command nabserve hosts a NAB broadcast session as a daemon: clients
// connect over TCP, stream framed broadcast requests, and receive one
// framed reply per committed instance, in order. Requests feed the
// session's submission queue directly, so a streaming client keeps the
// engine's pipeline window full automatically — no batching layer in
// between.
//
// Server:
//
//	nabserve -listen 127.0.0.1:7012 -topo k7 -f 2 -len 64 -window 4
//
// Add -net-transport to run node-to-node traffic over loopback TCP links
// (wire-framed) instead of the in-process bus, and -adversary n=strategy
// (repeatable; the cluster.json strategies crash, flip, coded, alarm,
// suppress, random[:<seed>]) to host faulty nodes.
// Add -wal DIR to make the daemon durable: accepted requests and commits
// are write-ahead logged, and a daemon killed mid-stream resumes on
// restart — dispute state, instance numbering and uncommitted requests
// included — instead of starting the broadcast sequence over. Add
// -snapshot-interval N to snapshot the engine state every N commits and
// compact the log behind it, so disk use and restart replay stay
// bounded by the live suffix no matter how long the daemon runs. Add
// -admin ADDR to expose /metrics (Prometheus text exposition), /healthz
// (engine liveness, drain state, WAL sync lag) and /debug/pprof on a
// private HTTP endpoint; durable daemons additionally mount
// POST /snapshot, which forces a snapshot + compaction on demand — the
// "drain, snapshot, restart" step of a rolling restart. Add -flight N
// to arm the flight recorder: GET /debug/flight downloads the ring as a
// binary dump for tools/nabtrace, and anomalies (dispute barriers,
// digest tripwires) drop black-box dumps next to the WAL.
//
// Client (sends -q framed requests, prints the replies):
//
//	nabserve -connect 127.0.0.1:7012 -len 64 -q 16
//
// Wire protocol: a request is a 4-byte big-endian length followed by the
// broadcast input (exactly -len bytes); a reply is a 4-byte big-endian
// length followed by a JSON object {instance, output, mismatch, phase3,
// modelTime}. The connection closes after an invalid request. A client
// connecting while the daemon still drains a disconnected client's
// outstanding commits gets a single {"error":"draining: ..."} reply and
// the connection closes.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"nab"
	"nab/internal/admin"
	"nab/internal/cluster"
	"nab/internal/topo"
)

// reply is the JSON body of one response frame.
type reply struct {
	Instance int    `json:"instance"`
	Output   []byte `json:"output"`
	Mismatch bool   `json:"mismatch"`
	Phase3   bool   `json:"phase3"`
	// ModelTime is the instance's cut-through duration in time units.
	ModelTime float64 `json:"modelTime"`
	// Error is set on a refusal frame — e.g. a client connecting while
	// the daemon drains a previous client's abandoned commits — after
	// which the connection closes.
	Error string `json:"error,omitempty"`
}

// errDraining is the typed refusal a client receives when it connects
// while the daemon is still flushing commits a disconnected client left
// outstanding. It also surfaces on /healthz as not-ready.
var errDraining = errors.New("draining: flushing commits a disconnected client left outstanding")

// maxHealthyWALLag is the /healthz threshold on appended-but-unsynced
// WAL records; the group-commit syncer keeps it near zero in a healthy
// daemon.
const maxHealthyWALLag = 4096

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nabserve:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nabserve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7012", "serve on this address")
	connect := fs.String("connect", "", "client mode: stream requests to this server")
	topoName := fs.String("topo", "k7", "built-in topology: "+strings.Join(topo.Names(), ", "))
	file := fs.String("file", "", "topology file (overrides -topo)")
	source := fs.Int("source", 1, "source node id")
	f := fs.Int("f", 1, "fault bound")
	lenBytes := fs.Int("len", 64, "input length in bytes")
	window := fs.Int("window", 4, "pipeline window (instances in flight)")
	seed := fs.Int64("seed", 1, "seed for coding matrices (server) / inputs (client)")
	q := fs.Int("q", 8, "client mode: number of requests to stream")
	netTransport := fs.Bool("net-transport", false, "run node links over loopback TCP instead of the in-process bus")
	walDir := fs.String("wal", "", "durable WAL directory: accepted requests and commits are logged there, and a restarted daemon resumes the stream (dispute state included) instead of starting over")
	snapEvery := fs.Int("snapshot-interval", 0, "write a full engine-state snapshot every N commits and compact the WAL behind it, bounding disk use and restart replay to the live suffix (0 = default, 256; must not be negative; requires -wal)")
	adminAddr := fs.String("admin", "", "serve /metrics (Prometheus text), /healthz, /debug/pprof and POST /snapshot (durable daemons) on this address")
	flightCap := fs.Int("flight", 0, "arm the flight recorder with a ring of N events (rounded up to a power of two); dump it via /debug/flight, black-box dumps land in the WAL dir on anomalies")
	specs := cluster.AdversarySpecs{}
	fs.Var(specs, "adversary", "node=strategy (repeatable): crash, flip, coded, alarm, suppress, random[:<seed>]")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *connect != "" {
		return client(w, *connect, *q, *lenBytes, *seed)
	}

	g, err := topo.Load(*file, *topoName)
	if err != nil {
		return err
	}
	advs, err := specs.Build()
	if err != nil {
		return err
	}
	cfg := nab.Config{
		Graph: g, Source: nab.NodeID(*source), F: *f,
		LenBytes: *lenBytes, Seed: *seed, Adversaries: advs,
	}
	opts := []nab.SessionOption{nab.WithWindow(*window)}
	if *flightCap > 0 {
		opts = append(opts, nab.WithFlightRecorder(*flightCap))
	}
	if *snapEvery != 0 && *walDir == "" {
		return fmt.Errorf("-snapshot-interval requires -wal")
	}
	if *walDir != "" {
		opts = append(opts, nab.Recover(*walDir))
		if *snapEvery != 0 {
			opts = append(opts, nab.WithSnapshotInterval(*snapEvery))
		}
	}
	if *netTransport {
		tr, err := nab.NewTCPTransport(g)
		if err != nil {
			return err
		}
		opts = append(opts, nab.WithTransport(tr))
	}
	sess, err := nab.Open(context.Background(), cfg, opts...)
	if err != nil {
		return err
	}
	defer sess.Close()

	srv := &server{sess: sess, lenBytes: *lenBytes, w: w}
	if *adminAddr != "" {
		admOpts := admin.Options{Checks: adminChecks(srv)}
		if *walDir != "" {
			// POST /snapshot forces a snapshot + compaction now — the
			// "drain, snapshot, restart" step of a rolling restart, so the
			// next boot replays only the live suffix.
			admOpts.Actions = []admin.Action{{Path: "/snapshot", Run: func() (string, error) {
				info, err := sess.Snapshot()
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("snapshot at instance %d (gen %d, digest %016x)", info.K, info.Gen, info.Digest), nil
			}}}
		}
		adm, err := admin.Serve(*adminAddr, admOpts)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(w, "nabserve: admin endpoints on http://%s (/metrics, /healthz, /debug/pprof)\n", adm.Addr())
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Fprintf(w, "nabserve: listening on %s (topo %s, n=%d, f=%d, len=%d, window=%d)\n",
		l.Addr(), *topoName, g.NumNodes(), *f, *lenBytes, *window)
	return srv.serve(l)
}

// adminChecks is the daemon's /healthz probe set: engine liveness, the
// drain flag (a not-ready daemon still flushing an abandoned client's
// commits), and WAL sync lag.
func adminChecks(srv *server) []admin.Check {
	return []admin.Check{
		{Name: "engine", Probe: srv.sess.Err},
		{Name: "draining", Probe: func() error {
			if srv.draining.Load() {
				return errDraining
			}
			return nil
		}},
		{Name: "wal", Probe: func() error {
			if lag := srv.sess.WALSyncLag(); lag > maxHealthyWALLag {
				return fmt.Errorf("sync lag %d records", lag)
			}
			return nil
		}},
	}
}

// server is the daemon's accept-loop state: the shared session plus the
// drain flag the admin /healthz probe and the accept loop both read.
type server struct {
	sess     *nab.Session
	lenBytes int
	w        io.Writer
	// draining is set while a disconnected client's outstanding commits
	// are still being consumed; a client connecting in that window gets a
	// typed errDraining reply instead of a silent queue (or a reset when
	// the daemon dies mid-drain).
	draining atomic.Bool

	// live is the client connection being served; once the listener
	// closes (stopped), it is closed too, so a session blocked reading an
	// idle client cannot hold serve open.
	mu      sync.Mutex
	live    net.Conn
	stopped bool
}

// setLive records the connection session is about to serve (nil: none).
// After stop it is closed on the spot, failing the session's first read.
func (s *server) setLive(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live = conn
	if s.stopped && conn != nil {
		conn.Close()
	}
}

// stop pre-empts the session in progress by closing its connection.
func (s *server) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	if s.live != nil {
		s.live.Close()
	}
}

// serve handles clients one at a time: NAB broadcasts a single global
// instance sequence, so concurrent clients would interleave their requests
// into one stream anyway. The session — and with it the engine's dispute
// state — lives across connections. The accept loop stays live while a
// session drains, so a premature second client is refused with a typed
// error frame instead of hanging in the backlog.
func serve(l net.Listener, sess *nab.Session, lenBytes int, w io.Writer) error {
	srv := &server{sess: sess, lenBytes: lenBytes, w: w}
	return srv.serve(l)
}

func (s *server) serve(l net.Listener) error {
	conns := make(chan net.Conn)
	done := make(chan struct{})
	defer close(done)
	listenerGone := make(chan struct{})
	go func() {
		defer close(listenerGone)
		for {
			conn, err := l.Accept()
			if err != nil {
				s.stop()
				return // listener closed: clean shutdown
			}
			if s.draining.Load() {
				writeReply(conn, &reply{Error: errDraining.Error()})
				conn.Close()
				continue
			}
			// A client waits its turn off the accept loop: Accept must
			// keep running to notice the listener closing.
			go func() {
				select {
				case conns <- conn:
				case <-done:
					conn.Close()
				}
			}()
		}
	}()
	for {
		var conn net.Conn
		select {
		case conn = <-conns:
		case <-listenerGone:
			return nil
		}
		s.setLive(conn)
		if err := s.session(conn); err != nil && err != io.EOF {
			fmt.Fprintf(s.w, "nabserve: session %s: %v\n", conn.RemoteAddr(), err)
		}
		s.setLive(nil)
		conn.Close()
		if err := s.sess.Err(); err != nil {
			return err // the engine died; stop accepting
		}
	}
}

// session bridges one client connection onto the shared Session: a reader
// goroutine submits each framed request (blocking when the pipeline is
// saturated — the session's backpressure is the connection's flow
// control), while the main loop writes one reply per commit as it lands.
// Every submission this connection made is matched with a consumed commit
// before returning, so an early disconnect cannot leak replies into the
// next connection.
func (s *server) session(conn net.Conn) error {
	sess, lenBytes := s.sess, s.lenBytes
	ctx := context.Background()
	defer s.draining.Store(false)
	// events carries one nil per accepted submission, then the reader's
	// terminal error (io.EOF for a clean disconnect). done releases a
	// reader whose event nobody will consume (early bridge exit).
	events := make(chan error, 64)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(events)
		for {
			in, err := readFrame(conn, lenBytes)
			if err == nil {
				_, err = sess.Submit(ctx, in)
			}
			select {
			case events <- err:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	outstanding, open := 0, true
	var firstErr error
	for open || outstanding > 0 {
		var evCh chan error
		if open {
			evCh = events
		}
		var cmCh <-chan nab.Commit
		if outstanding > 0 {
			cmCh = sess.Commits()
		}
		select {
		case err := <-evCh:
			if err != nil {
				open = false
				// A clean disconnect (EOF) of the read side still gets
				// replies for everything it submitted — the client may
				// have only half-closed. Real errors switch to draining.
				if err != io.EOF && firstErr == nil {
					firstErr = err
					if outstanding > 0 {
						s.draining.Store(true)
					}
				}
				continue
			}
			outstanding++
		case c, ok := <-cmCh:
			if !ok {
				// The session ended; no further commits will come.
				if firstErr == nil {
					firstErr = sess.Err()
				}
				return firstErr
			}
			if c.Replayed || c.Seq <= sess.RecoveredSeq() {
				// A -wal recovery re-delivers pre-restart commits, and
				// the recovered-but-uncommitted backlog re-executes with
				// fresh commits at or below the recovered sequence; both
				// answer a previous incarnation's requests, not this
				// connection's.
				continue
			}
			outstanding--
			if firstErr != nil {
				continue // draining only; the client is gone
			}
			if err := writeReply(conn, &reply{
				Instance:  c.Result.K,
				Output:    agreedOutput(c.Result),
				Mismatch:  c.Result.Mismatch,
				Phase3:    c.Result.Phase3,
				ModelTime: c.Result.TotalTime(),
			}); err != nil {
				firstErr = err
				if outstanding > 0 {
					s.draining.Store(true)
				}
				// Unblock a reader stuck in readFrame so the drain ends.
				conn.Close()
			}
		}
	}
	return firstErr
}

// agreedOutput picks the (common) decision of the fault-free nodes.
func agreedOutput(ir *nab.InstanceResult) []byte {
	var best nab.NodeID
	var out []byte
	for v, val := range ir.Outputs {
		if out == nil || v < best {
			best, out = v, val
		}
	}
	return out
}

// client streams q seeded random inputs and prints each reply.
func client(w io.Writer, addr string, q, lenBytes int, seed int64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	rng := rand.New(rand.NewSource(seed))
	go func() {
		for i := 0; i < q; i++ {
			in := make([]byte, lenBytes)
			rng.Read(in)
			if err := writeFrame(conn, in); err != nil {
				return
			}
		}
	}()
	for i := 0; i < q; i++ {
		rep, err := readReply(conn, lenBytes)
		if err != nil {
			return fmt.Errorf("reply %d: %w", i+1, err)
		}
		if rep.Error != "" {
			return fmt.Errorf("server refused: %s", rep.Error)
		}
		fmt.Fprintf(w, "instance %d: %d bytes, mismatch=%v phase3=%v modelTime=%.2f\n",
			rep.Instance, len(rep.Output), rep.Mismatch, rep.Phase3, rep.ModelTime)
	}
	return nil
}

func readFrame(r io.Reader, lenBytes int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int(n) != lenBytes {
		return nil, fmt.Errorf("request of %d bytes, want %d", n, lenBytes)
	}
	in := make([]byte, n)
	if _, err := io.ReadFull(r, in); err != nil {
		return nil, err
	}
	return in, nil
}

// writeFrame sends the frame in one write: a peer that already answered
// and closed (the draining refusal) resets the connection on the first
// segment it sees, and a second write would fail with EPIPE before the
// caller gets to read that answer.
func writeFrame(w io.Writer, payload []byte) error {
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	_, err := w.Write(frame)
	return err
}

func writeReply(w io.Writer, rep *reply) error {
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return writeFrame(w, raw)
}

func readReply(r io.Reader, lenBytes int) (*reply, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	// The JSON reply carries the output base64-encoded, so its size
	// scales with the configured input length.
	if limit := uint32(1<<16 + 2*lenBytes); n > limit {
		return nil, fmt.Errorf("oversized reply (%d bytes, limit %d)", n, limit)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, err
	}
	rep := &reply{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
