package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nab"
)

// Load model. NAB is a single-source ordered stream whose caller waits for
// commits, so the generator is a closed loop: one goroutine per session
// keeps exactly loopWindow submissions outstanding and submits the next on
// each commit, with no think time. A slow system therefore receives less
// load; latency is timed from the Submit call to receipt on Commits().

// tally counts, across the goroutines of a run, the operations attempted
// (Opens and Submits) and the correctness violations found.
type tally struct {
	attempted atomic.Int64
	mu        sync.Mutex
	failed    int
	msgs      []string
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.msgs) < 8 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// commitRec is one commit as the loop saw it.
type commitRec struct {
	seq    int
	submit time.Time // Submit call
	recv   time.Time // receipt on Commits()
}

// stream drives one session closed-loop and checks every commit it gets.
type stream struct {
	h        *host
	payloads *rand.Rand
	bufs     [loopWindow][]byte
	subAt    [loopWindow]time.Time
	// submitted and committed count this session's sequence numbers.
	submitted, committed int
	tally                *tally
	// corruptSeq, when non-zero, flips one byte of the payload expected
	// for that sequence number: the -selftest-corrupt probe that the
	// byte check can fail.
	corruptSeq int
	// recvAt and bits keep every commit's receipt time and charged bits by
	// sequence number when keepRecv is set (the hosts of a cluster).
	keepRecv bool
	recvAt   []time.Time
	bits     []int64
	// waits keeps the duration of every Submit call in ms when keepWaits
	// is set (traced runs).
	keepWaits bool
	waits     []float64
}

func newStream(h *host, payloads *rand.Rand, lenBytes int, tally *tally) *stream {
	st := &stream{h: h, payloads: payloads, tally: tally}
	for i := range st.bufs {
		st.bufs[i] = make([]byte, lenBytes)
	}
	return st
}

// submit generates the next payload of the seeded stream and submits it.
// Slot (seq-1) mod W is free again: with W outstanding, sequence number
// seq is only submitted once seq-W has committed.
func (st *stream) submit(ctx context.Context) error {
	i := st.submitted % loopWindow
	st.payloads.Read(st.bufs[i])
	st.tally.attempted.Add(1)
	t0 := time.Now()
	st.subAt[i] = t0
	seq, err := st.h.sess.Submit(ctx, st.bufs[i])
	if st.keepWaits {
		st.waits = append(st.waits, ms(time.Since(t0)))
	}
	if err != nil {
		st.tally.fail("submit %d: %v", st.submitted+1, err)
		return err
	}
	st.submitted++
	if int(seq) != st.submitted {
		st.tally.fail("submit returned seq %d, want %d", seq, st.submitted)
	}
	return nil
}

// check verifies one commit against the payload submitted for it: strict
// sequence order, and the submitted bytes at every fault-free node this
// session hosts (the source is honest in every workload, so validity
// demands exactly the input).
func (st *stream) check(c nab.Commit, want []byte) {
	switch {
	case int(c.Seq) != st.committed:
		st.tally.fail("commit seq %d arrived at position %d", c.Seq, st.committed)
		return
	case c.Result == nil || c.Result.K != int(c.Seq):
		st.tally.fail("commit seq %d carries a wrong instance report", c.Seq)
		return
	case c.Replayed:
		st.tally.fail("commit seq %d marked replayed on a fresh session", c.Seq)
		return
	case len(c.Result.Outputs) != len(st.h.verify):
		st.tally.fail("commit seq %d has %d outputs, want %d", c.Seq, len(c.Result.Outputs), len(st.h.verify))
		return
	}
	if st.committed == st.corruptSeq {
		want = append([]byte(nil), want...)
		want[0] ^= 1
	}
	for _, v := range st.h.verify {
		if !bytes.Equal(c.Result.Outputs[v], want) {
			st.tally.fail("commit seq %d: node %d output differs from the submitted payload", c.Seq, v)
			return
		}
	}
}

// pump keeps loopWindow submissions outstanding while more() holds, then
// collects the commits still owed. observe sees every commit after it has
// been checked, before the next submission is decided.
func (st *stream) pump(ctx context.Context, more func() bool, observe func(c nab.Commit, rec commitRec)) error {
	for st.submitted < loopWindow && more() {
		if err := st.submit(ctx); err != nil {
			return err
		}
	}
	commits := st.h.sess.Commits()
	for st.committed < st.submitted {
		var c nab.Commit
		select {
		case got, ok := <-commits:
			if !ok {
				err := fmt.Errorf("commit stream ended with %d of %d submissions committed: %v",
					st.committed, st.submitted, st.h.sess.Err())
				st.tally.fail("%v", err)
				return err
			}
			c = got
		case <-ctx.Done():
			st.tally.fail("gave up waiting for commit %d: %v", st.committed+1, ctx.Err())
			return ctx.Err()
		}
		recv := time.Now()
		st.committed++
		i := (st.committed - 1) % loopWindow
		st.check(c, st.bufs[i])
		if st.keepRecv {
			st.recvAt = append(st.recvAt, recv)
			bits := int64(0)
			if c.Result != nil {
				bits = c.Result.TotalBits
			}
			st.bits = append(st.bits, bits)
		}
		if observe != nil {
			observe(c, commitRec{seq: st.committed, submit: st.subAt[i], recv: recv})
		}
		if more() {
			if err := st.submit(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish ends a session cleanly: drain, confirm nothing unexpected is left
// on the commit stream and that the session reports no error, then close.
// res receives the session's aggregate result when non-nil.
func (st *stream) finish(ctx context.Context, res **nab.PipelineResult, disputes *string) {
	sess := st.h.sess
	if err := sess.Drain(ctx); err != nil {
		st.tally.fail("drain: %v", err)
	} else {
		for range sess.Commits() {
			st.tally.fail("commit beyond the %d submitted", st.submitted)
		}
		if err := sess.Err(); err != nil {
			st.tally.fail("session error: %v", err)
		}
		if res != nil {
			*res = sess.Result()
		}
		if disputes != nil {
			*disputes = sess.Disputes().String()
		}
	}
	if err := sess.Close(); err != nil {
		st.tally.fail("close: %v", err)
	}
}

// windowSlices cuts the measurement window into slices whose rates are
// reported beside the totals, so a stall or a trend inside a run shows.
const windowSlices = 5

// mark is the state at one slice boundary, taken at a commit.
type mark struct {
	at      time.Time
	commits int
	proc    procSample
}

// meter watches the source host's commits and runs the phases of a run:
// warm-up, then a fixed wall-clock window cut into slices at commit
// boundaries (so a slice's rate is commits over the exact time between
// its first and last commit, free of quantisation on slow workloads).
type meter struct {
	window time.Duration
	opened time.Time
	opt    runOptions

	warm      int
	measuring bool
	done      bool
	marks     []mark
	nextMark  time.Time
	deadline  time.Time
	recs      []commitRec
	modelBits float64
	// firstCommit is Open call -> first commit.
	firstCommit time.Duration
	// trackGoroutines samples runtime.NumGoroutine at every commit.
	trackGoroutines bool
	goroutinesPeak  int
	// onStart and onEnd run at the window's first and last commit.
	onStart, onEnd func()
}

func newMeter(opt runOptions, opened time.Time) *meter {
	return &meter{window: time.Duration(opt.seconds * float64(time.Second)), opened: opened, opt: opt}
}

func (m *meter) mark(at time.Time, commits int) {
	m.marks = append(m.marks, mark{at: at, commits: commits, proc: readProc()})
}

// observe accounts one source-host commit and reports whether it was the
// window's last.
func (m *meter) observe(c nab.Commit, rec commitRec) (ended bool) {
	if m.done {
		return false
	}
	if !m.measuring {
		if m.warm == 0 {
			m.firstCommit = rec.recv.Sub(m.opened)
		}
		m.warm++
		if m.warm >= m.opt.warmCommits || (m.warm >= m.opt.warmMin && rec.recv.Sub(m.opened) >= m.opt.warmMax) {
			m.measuring = true
			if m.onStart != nil {
				m.onStart()
			}
			start := time.Now()
			m.mark(start, 0)
			m.nextMark = start.Add(m.window / windowSlices)
			m.deadline = start.Add(m.window)
		}
		return false
	}
	m.recs = append(m.recs, rec)
	if c.Result != nil {
		m.modelBits += float64(c.Result.TotalBits)
	}
	if m.trackGoroutines {
		m.goroutinesPeak = max(m.goroutinesPeak, runtime.NumGoroutine())
	}
	last := !rec.recv.Before(m.deadline)
	if last || !rec.recv.Before(m.nextMark) {
		m.mark(rec.recv, len(m.recs))
		for !m.nextMark.After(rec.recv) {
			m.nextMark = m.nextMark.Add(m.window / windowSlices)
		}
	}
	if last {
		m.done = true
		if m.onEnd != nil {
			m.onEnd()
		}
	}
	return last
}

// perSlice maps each slice with at least one commit through f and returns
// the values.
func (m *meter) perSlice(f func(a, b mark) float64) []float64 {
	var out []float64
	for i := 1; i < len(m.marks); i++ {
		if m.marks[i].commits > m.marks[i-1].commits {
			out = append(out, f(m.marks[i-1], m.marks[i]))
		}
	}
	return out
}

// sliceRates is commits per second in each slice of the window.
func (m *meter) sliceRates() []float64 {
	return m.perSlice(func(a, b mark) float64 {
		return float64(b.commits-a.commits) / b.at.Sub(a.at).Seconds()
	})
}

// latencies is the window's Submit -> receipt times in ms, ascending.
func (m *meter) latencies() []float64 {
	lat := make([]float64, len(m.recs))
	for i, r := range m.recs {
		lat[i] = ms(r.recv.Sub(r.submit))
	}
	return sorted(lat)
}

// latencyTails is the window's commit latency at the candidate tail
// percentiles, for choosing a workload's fixed one (README, "tails").
func (m *meter) latencyTails() []float64 {
	lat := m.latencies()
	return []float64{percentile(lat, 0.75), percentile(lat, 0.90), percentile(lat, 0.95), percentile(lat, 0.99)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics derives the declared end-to-end metrics from the window.
// setup is the median set-up time in seconds.
func (m *meter) endToEndMetrics(w *workload, setup float64, capacityUB float64) (map[string]float64, []float64) {
	lat := m.latencies()
	// Rates are taken over the whole window, first mark to last. The
	// slices are a diagnostic only: a K7 session speeds up by a fifth over
	// twelve seconds (it retains every instance report, the live heap
	// grows, the collector runs less often), and on such a trend the total
	// repeats within 1.5% where the median slice does not within 7%.
	first, last := m.marks[0], m.marks[len(m.marks)-1]
	commits := float64(last.commits - first.commits)
	perCommit := func(get func(p procSample) float64) float64 {
		return (get(last.proc) - get(first.proc)) / commits
	}
	cps := commits / last.at.Sub(first.at).Seconds()
	unit := w.TimeUnit
	if unit == 0 {
		unit = refTimeUnit
	}
	bitsPerSec := 8 * float64(w.Len) * cps
	out := map[string]float64{
		"setup_s":                setup,
		"commits_per_s":          cps,
		"goodput_mbit_s":         bitsPerSec / 1e6,
		"commit_latency_p50_ms":  percentile(lat, 0.50),
		"commit_latency_tail_ms": percentile(lat, w.Tail),
		"capacity_fraction":      bitsPerSec * unit.Seconds() / capacityUB,
		"cpu_ms_per_commit":      1e3 * perCommit(func(p procSample) float64 { return p.cpuSec }),
		"allocs_per_commit":      perCommit(func(p procSample) float64 { return p.allocs }),
		"alloc_kb_per_commit":    perCommit(func(p procSample) float64 { return p.allocBytes }) / 1024,
		"peak_rss_mb":            peakRSSMiB(),
	}
	return out, lat
}

// runResult is one run of one workload.
type runResult struct {
	// WindowSeconds is the measured window: requested length plus the
	// wait for the commit that closed it.
	WindowSeconds float64
	// Commits is the number of verified commits inside the window; every
	// latency percentile is taken from exactly that many samples.
	Commits        int
	TailPercentile float64
	// TailBeyond is how many samples lie beyond the tail percentile.
	TailBeyond int
	Attempted  int
	Failed     int
	Failures   []string
	Metrics    map[string]float64

	meter *meter
	// traceData is set on traced runs.
	traceData *traceData
}

// runOptions are the knobs of one run that are not part of the workload.
type runOptions struct {
	seconds     float64
	setupCycles int
	corrupt     bool
	traced      bool
	// Warm-up ends after warmCommits commits, or after warmMax once
	// warmMin are in: the paced workload commits five times a second, and
	// its only state to warm is the plan its first instance builds.
	warmCommits, warmMin int
	warmMax              time.Duration
	// kernelBudget bounds the repetitions of one kernel span.
	kernelBudget time.Duration
}

// closeTarget closes every session of a set-up cycle's target.
func closeTarget(t *target) {
	var wg sync.WaitGroup
	for _, h := range t.hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.sess.Close()
		}()
	}
	wg.Wait()
	t.release()
}

// capacityBound is the Theorem 2 upper bound of the workload's network.
func capacityBound(w *workload) (*nab.CapacityReport, error) {
	g, err := w.graph()
	if err != nil {
		return nil, err
	}
	return nab.AnalyzeCapacity(g, 1, w.F, false)
}

// runState is the state one run of one workload shares between its phases.
type runState struct {
	w     *workload
	env   *runEnv
	opt   runOptions
	tally *tally
	// setups are the set-up times in seconds.
	setups []float64
	// td and flightOpts are set on traced runs only.
	td         *traceData
	flightOpts []nab.SessionOption
}

// runOnce executes one run: set-up cycles, warm-up, the measurement
// window, drain and verification. The returned error means the harness
// could not run at all; protocol-level trouble is counted in the result.
func runOnce(ctx context.Context, w *workload, env *runEnv, opt runOptions) (*runResult, error) {
	capRep, err := capacityBound(w)
	if err != nil {
		return nil, err
	}
	r := &runState{w: w, env: env, opt: opt, tally: &tally{}}
	// Hand an earlier run's heap back to the OS first, or its pages would
	// count towards this run's peak.
	debug.FreeOSMemory()
	resetPeakRSS()

	// Set-up: Open call -> every session open, many times, median (a
	// churn's set-up samples are its rounds' own Opens instead).
	if w.Rounds == 0 {
		for i := 0; i < opt.setupCycles; i++ {
			r.tally.attempted.Add(1)
			// Collect the previous cycle's garbage outside the timed
			// region: an Open allocates a quarter of a megabyte, and whether
			// a cycle pays for a collection otherwise depends on where in
			// the heap's growth the process happens to be.
			runtime.GC()
			t0 := time.Now()
			t, err := w.open(ctx, w, env, nil)
			if err != nil {
				return nil, fmt.Errorf("set-up cycle %d: %w", i, err)
			}
			r.setups = append(r.setups, time.Since(t0).Seconds())
			closeTarget(t)
		}
	}

	res := &runResult{TailPercentile: w.Tail}
	if opt.traced {
		r.td = newTraceData()
		r.flightOpts = r.td.sessionOptions()
		defer r.td.disarm()
	}
	var m *meter
	if w.Rounds > 0 {
		m, err = r.churn(ctx)
	} else {
		m, err = r.steady(ctx)
	}
	if err != nil {
		return nil, err
	}
	if len(m.marks) < 2 || len(m.recs) == 0 {
		return nil, fmt.Errorf("%s: no commits inside the measurement window", w.Name)
	}
	metrics, lat := m.endToEndMetrics(w, median(r.setups), capRep.CapacityUB)
	res.Metrics = metrics
	res.Commits = len(lat)
	res.TailBeyond = beyond(len(lat), w.Tail)
	res.WindowSeconds = m.marks[len(m.marks)-1].at.Sub(m.marks[0].at).Seconds()
	res.Attempted = int(r.tally.attempted.Load())
	res.Failed = r.tally.failed
	res.Failures = r.tally.msgs
	res.Metrics[failedOpsRatio] = float64(res.Failed) / math.Max(1, float64(res.Attempted))
	res.meter = m
	res.traceData = r.td
	if r.td != nil {
		r.td.capRep = capRep
	}
	return res, nil
}

// steady loads one long-lived target (a single session, or the seven
// sessions of a cluster, all fed the identical stream) until the window
// closes at the source host.
func (r *runState) steady(ctx context.Context) (*meter, error) {
	w, env, opt, td := r.w, r.env, r.opt, r.td
	r.tally.attempted.Add(1)
	opened := time.Now()
	t, err := w.open(ctx, w, env, r.flightOpts)
	if err != nil {
		return nil, err
	}
	defer t.release()
	boot := time.Since(opened)
	m := newMeter(opt, opened)
	streams := make([]*stream, len(t.hosts))
	for i, h := range t.hosts {
		streams[i] = newStream(h, rand.New(rand.NewSource(env.seed)), w.Len, r.tally)
		streams[i].keepRecv = len(t.hosts) > 1
	}
	src := streams[0]
	if opt.corrupt {
		src.corruptSeq = opt.warmCommits + 1
	}
	if td != nil {
		td.arm(m, src)
	}

	// stopAt is the sequence number at which every loop stops submitting.
	// The source decides it when its window closes. Followers may then be
	// up to a window ahead of the source (they submit on their own
	// commits, and cannot commit k before the source launched k), so a
	// multi-host target runs one more window past the source's count.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	margin := 0
	if len(t.hosts) > 1 {
		margin = loopWindow
	}
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var observe func(nab.Commit, commitRec)
			if i == 0 {
				observe = func(c nab.Commit, rec commitRec) {
					if m.observe(c, rec) {
						stopAt.Store(int64(st.submitted + margin))
					}
				}
			}
			// A failed loop must not leave the others waiting for its
			// frames forever: the run's context deadline ends them.
			_ = st.pump(ctx, func() bool { return int64(st.submitted) < stopAt.Load() }, observe)
		}()
	}
	wg.Wait()

	closing := time.Now()
	results := make([]*nab.PipelineResult, len(streams))
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.finish(ctx, &results[i], nil)
		}()
	}
	wg.Wait()
	// Each host of a cluster accounts the links its own nodes send on;
	// together they cover the topology like a single session's result.
	srcRes := results[0]
	for _, r := range results[1:] {
		if srcRes == nil || r == nil {
			continue
		}
		for link, bits := range r.LinkBits {
			srcRes.LinkBits[link] += bits
		}
	}
	if td != nil {
		td.closeMs = ms(time.Since(closing))
		td.bootMs = ms(boot)
		td.sessionResult = srcRes
		td.streams = streams
		td.waits = src.waits
		td.walDir = t.walDir
		if t.walDir != "" {
			td.recoverLog(ctx, w, env, r.tally)
		}
	}
	return m, nil
}

// churn opens a fresh session every w.Rounds instances, back to back,
// and checks each round against the lockstep oracle: the Phase 3 schedule
// and the final dispute set (bytes are checked per commit as everywhere).
func (r *runState) churn(ctx context.Context) (*meter, error) {
	w, env, opt, td := r.w, r.env, r.opt, r.td
	want, err := churnOracle(w, env)
	if err != nil {
		return nil, fmt.Errorf("lockstep oracle: %w", err)
	}
	payloads := rand.New(rand.NewSource(env.seed))
	m := newMeter(opt, time.Now())
	corrupt := opt.corrupt
	for round := 0; !m.done; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.tally.attempted.Add(1)
		t0 := time.Now()
		t, err := w.open(ctx, w, env, r.flightOpts)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		opened := time.Since(t0)
		r.setups = append(r.setups, opened.Seconds())
		st := newStream(t.hosts[0], payloads, w.Len, r.tally)
		if corrupt && m.measuring && len(m.recs) > 0 {
			st.corruptSeq, corrupt = 1, false
		}
		if td != nil {
			td.arm(m, st)
		}
		got := make([]instanceSchedule, 0, w.Rounds)
		perr := st.pump(ctx, func() bool { return st.submitted < w.Rounds }, func(c nab.Commit, rec commitRec) {
			if c.Result != nil {
				got = append(got, instanceSchedule{c.Result.Mismatch, c.Result.Phase3})
			}
			m.observe(c, rec)
		})
		closing := time.Now()
		var disputes string
		var res *nab.PipelineResult
		st.finish(ctx, &res, &disputes)
		if td != nil {
			td.closeMs = ms(time.Since(closing))
			td.bootMs = ms(opened)
			td.sessionResult = res
			td.waits = append(td.waits, st.waits...)
		}
		t.release()
		if perr != nil {
			return nil, fmt.Errorf("round %d: %w", round, perr)
		}
		want.check(round, got, disputes, r.tally)
	}
	return m, nil
}
