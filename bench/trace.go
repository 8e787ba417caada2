package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"nab"
	"nab/internal/flight"
)

// Tracing is done by the benchmark alone; the program is not edited. The
// traced run arms the program's existing flight recorder and watches its
// events through the existing predicate hook (WithFlightPredicate). The
// ring itself is left at its minimum size: per-frame events (99.7% of the
// ~3500 events a K7 commit records) overwrite any affordable ring within a
// second, and a ring big enough to matter (59 MB for 2^20 events) raises
// the heap's GC trigger so far that the traced small_chan run was 30%
// faster than the untraced one. The tap keeps every non-frame event; frames
// are counted by the registry.

type tap struct {
	mu     sync.Mutex
	events []flight.Event
}

// see is the predicate: it runs on the recorder's hot path, from any
// goroutine, and never asks for a black-box dump.
func (t *tap) see(ev flight.Event) bool {
	if ev.Type != flight.EvFrameSend && ev.Type != flight.EvFrameRecv {
		t.mu.Lock()
		t.events = append(t.events, ev)
		t.mu.Unlock()
	}
	return false
}

// span is one timed interval: name, start, end, the span that caused it,
// and the instance (sequence number) it belongs to. Times are Unix ns.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int // index into the span list; -1 for a root
	Inst   int
}

// traceData is everything the traced run collects besides the meter.
type traceData struct {
	tap       *tap
	startReg  registry
	endReg    registry
	scrapeErr error

	bootMs, closeMs float64
	sessionResult   *nab.PipelineResult
	// streams are the hosts' loops (follower lag on cluster workloads).
	streams []*stream
	// waits are the source loop's Submit call durations in ms.
	waits                []float64
	walDir               string
	recoverMsPerInstance float64
	capRep               *nab.CapacityReport
	kernels              *kernelRun
	spans                []span
}

func newTraceData() *traceData { return &traceData{tap: &tap{}} }

func (td *traceData) sessionOptions() []nab.SessionOption {
	return []nab.SessionOption{nab.WithFlightRecorder(1024), nab.WithFlightPredicate(td.tap.see)}
}

// arm hooks the traced run's collectors onto the source loop and its meter.
func (td *traceData) arm(m *meter, src *stream) {
	src.keepWaits = true
	m.trackGoroutines = true
	m.onStart = func() { td.startReg, td.scrapeErr = scrapeRegistry() }
	m.onEnd = func() {
		var err error
		if td.endReg, err = scrapeRegistry(); err != nil {
			td.scrapeErr = err
		}
	}
}

// disarm drops the recorder's ring: Session.Close clears the predicate but
// leaves the ring armed for post-mortems, which would tax later runs.
func (td *traceData) disarm() { flight.Default().Disable() }

// recoverLog replays the run's own write-ahead log through nab.Recover on
// the lockstep engine and charges the time per re-delivered commit.
func (td *traceData) recoverLog(ctx context.Context, w *workload, env *runEnv, tally *tally) {
	cfg, err := w.config(env)
	if err != nil {
		tally.fail("recover: %v", err)
		return
	}
	t0 := time.Now()
	sess, err := nab.Open(ctx, cfg, nab.WithLockstep(), nab.Recover(td.walDir))
	if err != nil {
		tally.fail("recover: %v", err)
		return
	}
	defer sess.Close()
	drained := make(chan error, 1)
	go func() { drained <- sess.Drain(ctx) }()
	replayed := 0
	var last time.Time
	for c := range sess.Commits() {
		if c.Replayed {
			replayed++
			last = time.Now()
		}
	}
	if err := <-drained; err != nil {
		tally.fail("recover: drain: %v", err)
	}
	if replayed > 0 {
		td.recoverMsPerInstance = ms(last.Sub(t0)) / float64(replayed)
	}
}

// instanceTrace is one commit's flight events, stitched.
type instanceTrace struct {
	launch, commit int64
	phase          [flight.PhaseClaims + 1]int64 // by Phase* code
}

// stitch finds, for every commit of the window, the flight events of its
// instance: the launch of the execution that committed (same dispute
// generation as the commit event; earlier launches were reaped at a
// barrier), the phase boundaries after it, and the commit. Sequence
// numbers repeat across the sessions of a churn, so events must also fall
// inside the commit's own Submit -> receipt interval. With several hosts
// in one process every host records the same boundary; the earliest wins.
func (td *traceData) stitch(recs []commitRec) []instanceTrace {
	byK := map[int32][]flight.Event{}
	td.tap.mu.Lock()
	for _, ev := range td.tap.events {
		switch ev.Type {
		case flight.EvLaunch, flight.EvPhase, flight.EvCommit:
			byK[ev.K] = append(byK[ev.K], ev)
		}
	}
	td.tap.mu.Unlock()
	out := make([]instanceTrace, len(recs))
	for i, r := range recs {
		lo, hi := r.submit.UnixNano(), r.recv.UnixNano()
		var it instanceTrace
		evs := byK[int32(r.seq)]
		gen := int32(-1)
		for _, ev := range evs {
			if ev.Type == flight.EvCommit && ev.TS >= lo && ev.TS <= hi && (it.commit == 0 || ev.TS < it.commit) {
				it.commit, gen = ev.TS, ev.Gen
			}
		}
		for _, ev := range evs {
			if ev.Type == flight.EvLaunch && ev.Gen == gen && ev.TS >= lo && ev.TS <= hi && (it.launch == 0 || ev.TS < it.launch) {
				it.launch = ev.TS
			}
		}
		for _, ev := range evs {
			if ev.Type == flight.EvPhase && it.launch != 0 && ev.TS >= it.launch && ev.TS <= hi &&
				int(ev.Step) < len(it.phase) && (it.phase[ev.Step] == 0 || ev.TS < it.phase[ev.Step]) {
				it.phase[ev.Step] = ev.TS
			}
		}
		out[i] = it
	}
	return out
}

var phaseSpanNames = map[uint32]string{
	flight.Phase1:        "core.phase1",
	flight.PhaseEquality: "core.equality",
	flight.PhaseFlags:    "core.flags",
	flight.PhaseClaims:   "core.claims",
}

// buildSpans turns the window's commits into span trees: a root `commit`
// span per sequence number (Submit call -> receipt), under it
// `session.queue` (Submit -> launch) and `runtime.launch_to_commit`, and
// under that one span per protocol phase (a phase ends where the next one,
// or the commit, begins). WAL fsyncs inside a commit's interval hang under
// its root as instants.
func (td *traceData) buildSpans(recs []commitRec, its []instanceTrace) {
	var fsyncs []int64
	td.tap.mu.Lock()
	for _, ev := range td.tap.events {
		if ev.Type == flight.EvWALFsync {
			fsyncs = append(fsyncs, ev.TS)
		}
	}
	td.tap.mu.Unlock()
	sort.Slice(fsyncs, func(i, j int) bool { return fsyncs[i] < fsyncs[j] })
	for i, r := range recs {
		root := len(td.spans)
		lo, hi := r.submit.UnixNano(), r.recv.UnixNano()
		td.spans = append(td.spans, span{Name: "commit", Start: lo, End: hi, Parent: -1, Inst: r.seq})
		it := its[i]
		if it.launch != 0 && it.commit != 0 {
			td.spans = append(td.spans, span{Name: "session.queue", Start: lo, End: it.launch, Parent: root, Inst: r.seq})
			rt := len(td.spans)
			td.spans = append(td.spans, span{Name: "runtime.launch_to_commit", Start: it.launch, End: it.commit, Parent: root, Inst: r.seq})
			var codes []uint32
			for code := range phaseSpanNames {
				if it.phase[code] != 0 {
					codes = append(codes, code)
				}
			}
			sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
			for j, code := range codes {
				end := it.commit
				if j+1 < len(codes) {
					end = it.phase[codes[j+1]]
				}
				td.spans = append(td.spans, span{Name: phaseSpanNames[code], Start: it.phase[code], End: end, Parent: rt, Inst: r.seq})
			}
		}
		first := sort.Search(len(fsyncs), func(j int) bool { return fsyncs[j] >= lo })
		for j := first; j < len(fsyncs) && fsyncs[j] <= hi; j++ {
			td.spans = append(td.spans, span{Name: "wal.fsync", Start: fsyncs[j], End: fsyncs[j], Parent: root, Inst: r.seq})
		}
	}
}

// selfTimes returns, per span name, the total self time in ns: each span's
// duration minus the part of it its children cover (children of one parent
// never overlap here: they are consecutive by construction).
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += max(s.End-s.Start-covered[i], 0)
	}
	return out
}

// maxTraceCommits caps the commit trees written to the trace file; the
// metrics always use every commit of the window.
const maxTraceCommits = 2000

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// ui.perfetto.dev or chrome://tracing). Commit trees go on one lane per
// outstanding-window slot, kernels on a lane of their own.
func writeChromeTrace(path string, workloadName string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans to write")
	}
	origin := spans[0].Start
	for _, s := range spans {
		origin = min(origin, s.Start)
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "nab bench: " + workloadName}}}
	const kernelLane = loopWindow + 1
	commits := 0
	lane := make([]int, len(spans))
	for i, s := range spans {
		switch {
		case s.Parent >= 0:
			lane[i] = lane[s.Parent]
		case s.Name == "commit":
			commits++
			lane[i] = 1 + (s.Inst-1)%loopWindow
		default:
			lane[i] = kernelLane
		}
		if s.Name == "commit" && commits > maxTraceCommits {
			lane[i] = -1
		}
		if lane[i] < 0 {
			continue
		}
		ev := event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane[i],
			Ts: float64(s.Start-origin) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"instance": s.Inst},
		}
		if s.Parent >= 0 {
			ev.Args["parent"] = spans[s.Parent].Name
		}
		if s.End == s.Start {
			ev.Ph, ev.S, ev.Dur = "i", "t", 0
		}
		events = append(events, ev)
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
