package flight

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingWraparoundKeepsNewestInOrder(t *testing.T) {
	var r Recorder
	r.Enable(1) // rounds up to the 1024 minimum
	const n = 3000
	for i := 0; i < n; i++ {
		r.Record(Event{Type: EvCommit, K: int32(i), Node: -1})
	}
	if got := r.Total(); got != n {
		t.Fatalf("Total = %d, want %d", got, n)
	}
	evs := r.Events()
	if len(evs) != 1024 {
		t.Fatalf("surviving events = %d, want ring capacity 1024", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(n - 1024 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d: Seq = %d, want %d (oldest survivors evicted first)", i, ev.Seq, wantSeq)
		}
		if ev.K != int32(wantSeq) {
			t.Fatalf("event %d: K = %d, want %d", i, ev.K, wantSeq)
		}
		if i > 0 && evs[i-1].TS > ev.TS {
			t.Fatalf("event %d: timestamps regress across claim order", i)
		}
	}
}

func TestConcurrentRecordAndDump(t *testing.T) {
	var r Recorder
	r.Enable(2048)
	const writers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Event{Type: EvFrameSend, Node: int32(w), Inst: uint64(i), Arg: uint64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			evs := r.Events()
			for j := 1; j < len(evs); j++ {
				if evs[j-1].Seq >= evs[j].Seq {
					t.Errorf("snapshot %d: Seq not strictly increasing at %d", i, j)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Total(); got != writers*per {
		t.Fatalf("Total = %d, want %d", got, writers*per)
	}
}

func TestFlightRecordZeroAlloc(t *testing.T) {
	var r Recorder
	r.Enable(4096)
	ev := Event{Type: EvFrameSend, Node: 1, Peer: 2, Inst: 7, Arg: 3, Step: 2}
	if avg := testing.AllocsPerRun(1000, func() { r.Record(ev) }); avg != 0 {
		t.Fatalf("Record allocates %.1f/op while enabled, want 0", avg)
	}
	r.Disable()
	if avg := testing.AllocsPerRun(1000, func() { r.Record(ev) }); avg != 0 {
		t.Fatalf("Record allocates %.1f/op while disabled, want 0", avg)
	}
	Default().Disable()
	if avg := testing.AllocsPerRun(1000, func() { Record(ev) }); avg != 0 {
		t.Fatalf("package-level Record allocates %.1f/op while disabled, want 0", avg)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	var r Recorder
	r.Enable(1024)
	r.SetLabel("node-3")
	want := []Event{
		{Type: EvLaunch, Inst: 1, K: 1, Gen: 0, Node: -1},
		{Type: EvPhase, K: 1, Step: Phase1, Node: -1},
		{Type: EvFrameSend, Inst: 1, Node: 1, Peer: 2, Step: 3, Arg: 0},
		{Type: EvFrameRecv, Inst: 1, Node: 2, Peer: 1, Step: 3, Arg: 0},
		{Type: EvCommit, Inst: 1, K: 1, Node: -1, Arg: 4096},
		{Type: EvAnomaly, Node: -1, Arg: ReasonDispute},
	}
	for _, ev := range want {
		r.Record(ev)
	}
	buf := r.DumpBytes("manual", 12345)
	d, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Meta.Label != "node-3" || d.Meta.Reason != "manual" || d.Meta.WallNS != 12345 {
		t.Fatalf("meta = %+v", d.Meta)
	}
	if d.Meta.Total != uint64(len(want)) || d.Meta.Capacity != 1024 {
		t.Fatalf("meta totals = %+v", d.Meta)
	}
	if len(d.Events) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(d.Events), len(want))
	}
	for i, ev := range d.Events {
		w := want[i]
		w.Seq = uint64(i)
		w.TS = ev.TS // stamped at record time
		if ev != w {
			t.Fatalf("event %d = %+v, want %+v", i, ev, w)
		}
		if ev.TS <= 0 {
			t.Fatalf("event %d: unstamped TS", i)
		}
	}
}

func TestDecodeRejectsCorruptAndKeepsTornTail(t *testing.T) {
	var r Recorder
	r.Enable(1024)
	for i := 0; i < 10; i++ {
		r.Record(Event{Type: EvCommit, K: int32(i), Node: -1})
	}
	buf := r.DumpBytes("manual", 1)

	if _, err := Decode([]byte("not a dump at all")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
	flip := append([]byte(nil), buf...)
	flip[len(dumpMagic)+8] ^= 0xff // corrupt header payload under the CRC
	if _, err := Decode(flip); err == nil {
		t.Fatal("Decode accepted header with bad checksum")
	}
	torn := buf[:len(buf)-eventWire-13] // lose the last event and a bit more
	d, err := Decode(torn)
	if err != nil {
		t.Fatalf("Decode torn tail: %v", err)
	}
	if len(d.Events) != 8 {
		t.Fatalf("torn decode kept %d events, want 8 complete ones", len(d.Events))
	}
}

func TestPredicateTriggersAnomalyEvent(t *testing.T) {
	var r Recorder
	r.Enable(1024)
	r.SetPredicate(func(ev Event) bool { return ev.Type == EvCommit && ev.K == 3 })
	for i := 0; i < 5; i++ {
		r.Record(Event{Type: EvCommit, K: int32(i), Node: -1})
	}
	r.SetPredicate(nil)
	anomalies := 0
	for _, ev := range r.Events() {
		if ev.Type == EvAnomaly && ev.Arg == ReasonPredicate {
			anomalies++
		}
	}
	if anomalies != 1 {
		t.Fatalf("predicate fired %d anomaly events, want 1", anomalies)
	}
}

// TestAlwaysTruePredicateDoesNotRecurse pins the anomaly exemption: the
// predicate never sees the EvAnomaly event Trigger records, so even the
// trivial always-true predicate fires exactly once per recorded event
// instead of recursing Record→Trigger→Record to a stack overflow.
func TestAlwaysTruePredicateDoesNotRecurse(t *testing.T) {
	var r Recorder
	r.Enable(1024)
	r.SetPredicate(func(Event) bool { return true })
	const n = 5
	for i := 0; i < n; i++ {
		r.Record(Event{Type: EvCommit, K: int32(i), Node: -1})
	}
	r.SetPredicate(nil)
	anomalies := 0
	for _, ev := range r.Events() {
		if ev.Type == EvAnomaly {
			anomalies++
		}
	}
	if anomalies != n {
		t.Fatalf("always-true predicate fired %d anomaly events, want one per recorded event (%d)", anomalies, n)
	}
	if got := r.Total(); got != 2*n {
		t.Fatalf("Total = %d, want %d (each event plus its anomaly)", got, 2*n)
	}
}

func TestRingCapacityClampTerminates(t *testing.T) {
	cases := []struct {
		in   int
		want uint64
	}{
		{0, 1024},
		{1, 1024},
		{1024, 1024},
		{1025, 2048},
		{maxRingCapacity, maxRingCapacity},
		{maxRingCapacity + 1, maxRingCapacity},
		{math.MaxInt, maxRingCapacity}, // 2^62<<1 would go negative and loop forever unclamped
	}
	for _, c := range cases {
		if got := ringCapacity(c.in); got != c.want {
			t.Errorf("ringCapacity(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// chanWriter delivers each report line to a channel, so the test can wait
// for the asynchronous dump loop without racing a shared buffer.
type chanWriter chan string

func (w chanWriter) Write(p []byte) (int, error) {
	select {
	case w <- string(p):
	default:
	}
	return len(p), nil
}

func TestAutodumpWriteFailureIsLogged(t *testing.T) {
	lines := make(chan string, 8)
	old := dumpErrs
	dumpErrs = chanWriter(lines)
	defer func() { dumpErrs = old }()

	var r Recorder
	r.Enable(1024)
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r.SetAutodumpDir(filepath.Join(file, "sub")) // a path under a regular file: writes must fail
	r.Trigger(ReasonManual)
	select {
	case line := <-lines:
		if !strings.Contains(line, "autodump to "+filepath.Join(file, "sub")) || !strings.Contains(line, "failed") {
			t.Fatalf("reported %q, want the failed autodump's path", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("failing black-box dump was never logged")
	}
}
