package transport

import (
	"testing"
	"time"

	"nab/internal/graph"
)

// TestPacerBitsPromptDuringStall: a frame big enough to stall its link's
// bucket for over a second must not block LinkBits for the duration, and
// still arrives only once the link has carried it. (The pacer once held
// its lock across the drain, so a stalled link blocked every reader.)
func TestPacerBitsPromptDuringStall(t *testing.T) {
	// 1000 bits per 100ms; 15_000 bits drain ~1.4s past the full bucket.
	tr := NewChan(mustParse(t, "1 2 1000"), ChanOptions{TimeUnit: 100 * time.Millisecond})
	defer tr.Close()
	start := time.Now()
	if err := mustDial(t, tr, 1, 2).Send(&Message{From: 1, To: 2, Bits: 15_000}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the frame enter its drain
	t0 := time.Now()
	got := tr.LinkBits()[[2]graph.NodeID{1, 2}]
	if el := time.Since(t0); el > 200*time.Millisecond {
		t.Fatalf("LinkBits blocked %v behind a draining frame", el)
	}
	if got != 15_000 {
		t.Fatalf("LinkBits = %d during the stall, want 15000 (the charge is metered at Send)", got)
	}
	if el := recvN(t, tr, 2, 1, 5*time.Second)[0].at.Sub(start); el < time.Second {
		t.Errorf("a 1.4s frame arrived after %v", el)
	}
}

// TestPacerDebtSerializes checks the accounting the debt model must
// preserve: over-budget frames back to back pay for each other — each
// frame's wait includes the previous frame's debt, so arrivals stay
// one-frame-at-a-time.
func TestPacerDebtSerializes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// 10_000 bits per 100ms: the full bucket covers the first frame, the
	// next two pay ~100ms each.
	tr := NewChan(mustParse(t, "1 2 10000"), ChanOptions{TimeUnit: 100 * time.Millisecond})
	defer tr.Close()
	l := mustDial(t, tr, 1, 2)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := l.Send(&Message{From: 1, To: 2, Bits: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	if el := recvN(t, tr, 2, 3, 5*time.Second)[2].at.Sub(start); el < 150*time.Millisecond {
		t.Fatalf("two full-budget frames drained in %v — debt not inherited", el)
	}
}
