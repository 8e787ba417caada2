package transport_test

import (
	"testing"
	"time"

	"nab/internal/transport"
)

// TestPeerCloseFlushesQueuedFrames pins the close contract of a socket
// link's queue: with a live receiver, every frame Send accepted before
// Close reaches the remote socket — Close flushes the queue without
// waiting for release times, so a paced link's backlog arrives at once —
// and Send refuses afterwards.
func TestPeerCloseFlushesQueuedFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  transport.PeerOptions
	}{
		{"polite", transport.PeerOptions{}},
		// 2 bits per second per link: paced, the backlog would take 800s.
		{"paced", transport.PeerOptions{TimeUnit: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := twoPeers(t, tc.opt)

			l, err := a.Dial(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			for i := 0; i < n; i++ {
				if err := l.Send(&transport.Message{Instance: 1, Step: uint32(i), From: 1, To: 3, Bits: 8, Body: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			// Close immediately: frames may still sit in the link's queue.
			a.Close()

			for i := 0; i < n; i++ {
				m, err := b.Recv(3)
				if err != nil {
					t.Fatalf("frame %d lost at sender close: %v", i, err)
				}
				if m.Step != uint32(i) {
					t.Fatalf("frame %d arrived as step %d", i, m.Step)
				}
			}

			// After Close, Send must refuse rather than silently drop.
			if err := l.Send(&transport.Message{From: 1, To: 3, Bits: 8}); err == nil {
				t.Error("Send after transport Close: expected error")
			}
		})
	}
}
