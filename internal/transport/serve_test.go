package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nab/internal/graph"
	"nab/internal/topo"
)

// served counts the frames a Serve handler receives, by (link, instance).
type served struct {
	mu  sync.Mutex
	got map[servedKey]int
	n   int

	closed atomic.Bool  // set once Close has returned
	late   atomic.Int64 // handler calls that began after that
}

type servedKey struct {
	from, to graph.NodeID
	inst     uint64
}

// onePacket is a step frame's packet list charging one bit.
var onePacket = []Packet{{Bits: 1, Body: []byte{1}}}

func newServed() *served { return &served{got: map[servedKey]int{}} }

func (s *served) deliver(m *Message) {
	if s.closed.Load() {
		s.late.Add(1)
	}
	s.mu.Lock()
	s.got[servedKey{m.From, m.To, m.Instance}]++
	s.n++
	s.mu.Unlock()
}

func (s *served) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// waitFor polls until the handler has received want frames.
func (s *served) waitFor(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.count() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("handler received %d frames, want %d", s.count(), want)
		}
	}
}

// TestServeConformance pins the Serve contract on every shipped transport
// (direct, paced and chaos buses, a Peer pair, loopback TCP): with two
// concurrent senders on every link, each frame reaches the handler
// exactly once; Recv after Serve fails at once; and once Close has
// returned, Send answers ErrClosed and the handler is never called again,
// though senders were still sending while it ran.
func TestServeConformance(t *testing.T) {
	const senders, perSender = 2, 150
	for _, tc := range conformanceTransports {
		t.Run(tc.name, func(t *testing.T) {
			g := topo.Fig1a()
			h := tc.open(t, g)
			defer h.Close()
			s := newServed()
			h.Serve(s.deliver)

			recvErr := make(chan error, 1)
			go func() {
				_, err := h.Recv(2)
				recvErr <- err
			}()
			select {
			case err := <-recvErr:
				if err == nil {
					t.Error("Recv after Serve returned a frame")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv after Serve blocked")
			}

			edges := g.Edges()
			links := make([]Link, len(edges))
			for i, e := range edges {
				links[i] = mustDial(t, h, e.From, e.To)
			}
			var wg sync.WaitGroup
			for i, e := range edges {
				for j := 0; j < senders; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; k < perSender; k++ {
							m := &Message{Instance: uint64(j*perSender + k + 1), Step: 1, From: e.From, To: e.To, Bits: 1, Packets: onePacket}
							if err := links[i].Send(m); err != nil {
								t.Errorf("send on (%d,%d): %v", e.From, e.To, err)
								return
							}
						}
					}()
				}
			}
			wg.Wait()
			s.waitFor(t, len(edges)*senders*perSender)
			s.mu.Lock()
			for key, n := range s.got {
				if n != 1 {
					t.Errorf("frame %+v delivered %d times", key, n)
				}
			}
			if len(s.got) != len(edges)*senders*perSender {
				t.Errorf("%d distinct frames delivered, want %d", len(s.got), len(edges)*senders*perSender)
			}
			s.mu.Unlock()

			// Close while every link is still sending.
			var sent atomic.Int64
			for i, e := range edges {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := uint64(1 << 20); ; k++ {
						err := links[i].Send(&Message{Instance: k, Step: 1, From: e.From, To: e.To, Packets: []Packet{}})
						if errors.Is(err, ErrClosed) {
							return
						}
						sent.Add(1)
					}
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); sent.Load() < 50 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			h.Close()
			s.closed.Store(true)
			wg.Wait()
			for i, l := range links {
				e := edges[i]
				if err := l.Send(&Message{From: e.From, To: e.To, Packets: []Packet{}}); !errors.Is(err, ErrClosed) {
					t.Errorf("Send on (%d,%d) after Close: %v, want ErrClosed", e.From, e.To, err)
				}
			}
			time.Sleep(20 * time.Millisecond)
			if n := s.late.Load(); n != 0 {
				t.Errorf("handler called %d times after Close returned", n)
			}
		})
	}
}

// TestPeerReadsNothingBeforeServe: a peer process can be sent frames
// before its runtime calls Serve. It reads none of them — they wait in the
// kernel's socket buffer, so they reach neither an inbox nor the
// receiver's inbound bits — and once Serve starts the socket readers each
// reaches the handler exactly once, also while the sender keeps sending.
func TestPeerReadsNothingBeforeServe(t *testing.T) {
	mp := openMeshPair(t, topo.Fig1a())
	defer mp.Close()
	l := mustDial(t, mp, 1, 2)
	key := [2]graph.NodeID{1, 2}
	const early, total = 500, 3000
	send := func(from, to int) {
		for i := from; i < to; i++ {
			if err := l.Send(&Message{Instance: uint64(i + 1), Step: 1, From: 1, To: 2, Bits: 1, Packets: onePacket}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}
	send(0, early)
	// The sender's link goroutine has taken every early frame off its
	// queue once the queue's slots are free; it flushes the socket as soon
	// as no frame is due.
	mp.a.mu.Lock()
	sl := mp.a.links[key]
	mp.a.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); len(sl.slots) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames still queued at the sender", len(sl.slots))
		}
	}
	time.Sleep(50 * time.Millisecond)
	if bits := mp.b.LinkBits()[key]; bits != 0 {
		t.Errorf("receiver counted %d inbound bits before Serve, want 0", bits)
	}
	if n := len(mp.b.inboxes[2]); n != 0 {
		t.Errorf("%d frames read into the inbox before Serve", n)
	}

	s := newServed()
	done := make(chan struct{})
	go func() {
		defer close(done)
		send(early, total)
	}()
	mp.Serve(s.deliver)
	<-done
	s.waitFor(t, total)
	time.Sleep(20 * time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n != total || len(s.got) != total {
		t.Errorf("handler received %d frames, %d distinct; want %d once each", s.n, len(s.got), total)
	}
	if bits := mp.b.LinkBits()[key]; bits != total {
		t.Errorf("receiver counted %d inbound bits, want %d", bits, total)
	}
}
