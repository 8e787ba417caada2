package nab_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nab"
	"nab/internal/metrics"
)

// mkPayloads builds q deterministic distinct payloads.
func mkPayloads(q, lenBytes int) [][]byte {
	out := make([][]byte, q)
	for i := range out {
		out[i] = make([]byte, lenBytes)
		for j := range out[i] {
			out[i][j] = byte(i*31 + j*7 + 1)
		}
	}
	return out
}

// feedAndCollect drives one session over payloads: a producer goroutine
// submits them all and drains, while the caller's side collects every
// commit, asserting Seq-ordered delivery. Returns the committed results
// and the final dispute set.
func feedAndCollect(t *testing.T, sess *nab.Session, payloads [][]byte) ([]*nab.InstanceResult, string) {
	t.Helper()
	ctx := context.Background()
	go func() {
		for _, p := range payloads {
			if _, err := sess.Submit(ctx, p); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
		sess.Drain(ctx)
	}()
	var results []*nab.InstanceResult
	for c := range sess.Commits() {
		if int(c.Seq) != len(results)+1 {
			t.Errorf("commit out of order: seq %d at position %d", c.Seq, len(results)+1)
		}
		if c.Result.K != int(c.Seq) {
			t.Errorf("commit seq %d carries instance %d", c.Seq, c.Result.K)
		}
		results = append(results, c.Result)
	}
	if err := sess.Err(); err != nil {
		t.Fatalf("session error: %v", err)
	}
	if res := sess.Result(); res == nil || res.Committed() != len(payloads) {
		t.Errorf("session result missing or incomplete")
	} else if res.Instances != nil {
		t.Errorf("session result retains %d instance reports; they belong to Commits only", len(res.Instances))
	}
	return results, sess.Disputes().String()
}

// sessionDiffConfig is one differential cell: a shared cluster config
// whose core configuration drives the lockstep and pipelined engines too.
func sessionDiffConfig(t *testing.T, g *nab.Graph, source nab.NodeID, f, procs int, advs map[nab.NodeID]string) (*nab.ClusterConfig, *nab.ClusterReservation) {
	t.Helper()
	nodes := g.Nodes()
	rsv, err := nab.ReserveClusterAddrs(procs + 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsv.Close() })
	addrs := rsv.Addrs()
	cfg := &nab.ClusterConfig{
		Topology: g.Marshal(), Source: source, F: f,
		LenBytes: 24, Seed: 7, Window: 4,
		CtrlAddr: addrs[procs],
	}
	for i, v := range nodes {
		cfg.Nodes = append(cfg.Nodes, nab.ClusterNodeSpec{ID: v, Addr: addrs[i%procs], Adversary: advs[v]})
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg, rsv
}

// TestSessionDifferentialEngines is the redesign's acceptance invariant:
// one Session API, three engines, identical payload sequences — the
// lockstep adapter, the pipelined runtime at W=4 and a 3-process TCP
// cluster. Every pipelined commit equals the lockstep one as a whole
// InstanceResult, the cluster processes' commits together equal it (see
// checkClusterSessions), and all end on the same dispute set.
func TestSessionDifferentialEngines(t *testing.T) {
	circ, err := nab.CirculantGraph(9, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name   string
		g      *nab.Graph
		source nab.NodeID
		f      int
		advs   map[nab.NodeID]string
	}{
		// Alarm + flip on K7 forces dispute control to keep running after
		// a node is proven faulty — the deepest control-plane path.
		{"K7/AlarmThenFlip", nab.CompleteGraph(7, 2), 1, 2, map[nab.NodeID]string{3: "alarm", 5: "flip"}},
		// The seeded (instance-scoped) random adversary is the only
		// randomized form the matrix uses: deterministic at any window.
		{"Circulant9/SeededRandom", circ, 1, 1, map[nab.NodeID]string{4: "random:99"}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			const procs = 3
			ccfg, rsv := sessionDiffConfig(t, cell.g, cell.source, cell.f, procs, cell.advs)
			payloads := mkPayloads(5, ccfg.LenBytes)
			ctx := context.Background()

			coreCfg, err := ccfg.CoreConfig()
			if err != nil {
				t.Fatal(err)
			}

			lockSess, err := nab.Open(ctx, coreCfg, nab.WithLockstep())
			if err != nil {
				t.Fatal(err)
			}
			defer lockSess.Close()
			want, wantDisputes := feedAndCollect(t, lockSess, payloads)

			coreCfg2, err := ccfg.CoreConfig() // fresh adversary state
			if err != nil {
				t.Fatal(err)
			}
			pipeSess, err := nab.Open(ctx, coreCfg2, nab.WithWindow(4))
			if err != nil {
				t.Fatal(err)
			}
			defer pipeSess.Close()
			pipe, pipeDisputes := feedAndCollect(t, pipeSess, payloads)
			if pipeDisputes != wantDisputes {
				t.Errorf("pipelined dispute set %q, want %q", pipeDisputes, wantDisputes)
			}
			for i, w := range want {
				if g := pipe[i]; !reflect.DeepEqual(g, w) {
					t.Errorf("pipelined instance %d: %+v, want %+v", i+1, g, w)
				}
			}

			checkClusterSessions(t, runClusterSessions(t, ccfg, rsv, payloads), want, wantDisputes)
		})
	}
}

// clusterView is what one cluster process's session committed.
type clusterView struct {
	results  []*nab.InstanceResult
	disputes string
}

// runClusterSessions opens one cluster session per hosting process and
// feeds every one the same payload stream.
func runClusterSessions(t *testing.T, ccfg *nab.ClusterConfig, rsv *nab.ClusterReservation, payloads [][]byte) []clusterView {
	t.Helper()
	leads := map[string]nab.NodeID{}
	var order []string
	for _, ns := range ccfg.Nodes {
		if _, ok := leads[ns.Addr]; !ok {
			leads[ns.Addr] = ns.ID
			order = append(order, ns.Addr)
		}
	}
	views := make([]clusterView, len(order))
	var wg sync.WaitGroup
	for i, addr := range order {
		wg.Add(1)
		go func(i int, lead nab.NodeID) {
			defer wg.Done()
			sess, err := nab.Open(context.Background(), nab.Config{}, nab.WithCluster(ccfg, lead, nab.ClusterOptions{
				BootTimeout: 30 * time.Second, Reservation: rsv,
			}))
			if err != nil {
				t.Errorf("process %d: %v", i, err)
				return
			}
			defer sess.Close()
			rs, ds := feedAndCollect(t, sess, payloads)
			views[i] = clusterView{results: rs, disputes: ds}
		}(i, leads[addr])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return views
}

// checkClusterSessions asserts that the cluster processes together
// committed the lockstep run want. Per instance, their outputs merge into
// the lockstep outputs, their TotalBits sum to the lockstep value and the
// maximum over processes of each cut-through phase time is the lockstep
// time; every other field of each process's result equals the lockstep
// one. A partial engine charges only its local nodes' sends, so
// Phase1SFTime (a sum of per-round maxima) is not comparable this way.
// Every process must also end on the lockstep dispute set.
func checkClusterSessions(t *testing.T, views []clusterView, want []*nab.InstanceResult, wantDisputes string) {
	t.Helper()
	for pi, view := range views {
		if len(view.results) != len(want) {
			t.Fatalf("process %d committed %d instances, want %d", pi, len(view.results), len(want))
		}
		if view.disputes != wantDisputes {
			t.Errorf("process %d dispute set %q, want %q", pi, view.disputes, wantDisputes)
		}
	}
	for i, w := range want {
		all := nab.InstanceResult{Outputs: map[nab.NodeID][]byte{}}
		for _, view := range views {
			g := view.results[i]
			for v, out := range g.Outputs {
				if prev, dup := all.Outputs[v]; dup && !bytes.Equal(prev, out) {
					t.Errorf("instance %d: node %d output reported twice with different values", i+1, v)
				}
				all.Outputs[v] = out
			}
			all.TotalBits += g.TotalBits
			all.Phase1Time = max(all.Phase1Time, g.Phase1Time)
			all.EqualityTime = max(all.EqualityTime, g.EqualityTime)
			all.FlagTime = max(all.FlagTime, g.FlagTime)
			all.DisputeTime = max(all.DisputeTime, g.DisputeTime)
		}
		for pi, view := range views {
			g := *view.results[i]
			g.Outputs, g.TotalBits, g.Phase1SFTime = all.Outputs, all.TotalBits, w.Phase1SFTime
			g.Phase1Time, g.EqualityTime, g.FlagTime, g.DisputeTime = all.Phase1Time, all.EqualityTime, all.FlagTime, all.DisputeTime
			if !reflect.DeepEqual(&g, w) {
				t.Errorf("process %d instance %d with the cluster's merged outputs, summed bits and maxed phase times: %+v, lockstep %+v", pi, i+1, g, w)
			}
		}
	}
}

// settleGoroutines fails the test if the goroutine count does not return
// to (near) base within the deadline — the no-leak check for canceled and
// closed sessions.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 { // tolerate runtime housekeeping goroutines
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, base %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSessionCancelMidDispute cancels a session while dispute control is
// in flight (alarm + flip keep Phase 3 busy on K7): the session must end
// with context.Canceled, close its commit stream, tear down without
// leaking goroutines, and refuse later submissions.
func TestSessionCancelMidDispute(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := nab.Config{
		Graph: nab.CompleteGraph(7, 2), Source: 1, F: 2, LenBytes: 24, Seed: 7,
		Adversaries: map[nab.NodeID]nab.Adversary{
			3: nab.FalseAlarmAdversary(),
			5: nab.BlockFlipperAdversary(),
		},
	}
	sess, err := nab.Open(ctx, cfg, nab.WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	payload := mkPayloads(1, cfg.LenBytes)[0]
	go func() {
		for {
			if _, err := sess.Submit(ctx, payload); err != nil {
				return // cancellation surfaced to the producer
			}
		}
	}()
	// The first commit of this scenario already ran dispute control; with
	// W=4 more speculative executions are mid-flight when we cancel.
	sawDispute := false
	for i := 0; i < 2; i++ {
		c, ok := <-sess.Commits()
		if !ok {
			t.Fatal("commit stream ended before cancellation")
		}
		sawDispute = sawDispute || c.Result.Phase3
	}
	if !sawDispute {
		t.Fatal("scenario did not exercise dispute control; adjust adversaries")
	}
	cancel()
	for range sess.Commits() {
		// drain whatever committed before the cancel landed
	}
	if err := sess.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("session error = %v, want context.Canceled", err)
	}
	if _, err := sess.Submit(context.Background(), payload); !errors.Is(err, nab.ErrSessionClosed) {
		t.Errorf("submit after cancel = %v, want ErrSessionClosed", err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("close after cancel: %v", err)
	}
	settleGoroutines(t, base)
}

// TestSessionBackpressure checks the consumer-to-producer stall chain: a
// consumer that stops reading Commits() fills the commit buffer, the
// pipeline, and the submission queue, until Submit blocks. Consuming
// again releases it.
func TestSessionBackpressure(t *testing.T) {
	ctx := context.Background()
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 1), Source: 1, F: 1, LenBytes: 8, Seed: 7}
	sess, err := nab.Open(ctx, cfg, nab.WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	payload := mkPayloads(1, cfg.LenBytes)[0]

	// Nobody consumes: submission must stall within a few accepted
	// payloads (the 16-commit buffer + window + submission queue).
	accepted, blocked := 0, false
	for i := 0; i < 64 && !blocked; i++ {
		sctx, scancel := context.WithTimeout(ctx, 200*time.Millisecond)
		_, err := sess.Submit(sctx, payload)
		scancel()
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, context.DeadlineExceeded):
			blocked = true
		default:
			t.Fatalf("submit: %v", err)
		}
	}
	if !blocked {
		t.Fatalf("submit never blocked after %d accepted payloads", accepted)
	}

	// A consumer appears: the stalled pipeline moves again and one more
	// submission goes through.
	got := make(chan int)
	go func() {
		n := 0
		for range sess.Commits() {
			n++
		}
		got <- n
	}()
	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	if _, err := sess.Submit(sctx, payload); err != nil {
		t.Fatalf("submit after consumer resumed: %v", err)
	}
	accepted++
	if err := sess.Drain(sctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := <-got; n != accepted {
		t.Errorf("consumed %d commits, want %d", n, accepted)
	}
}

// TestSessionLifecycleErrors covers the API edges: submit after drain,
// double close, submit after close, payload validation and option
// conflicts.
func TestSessionLifecycleErrors(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 1), Source: 1, F: 1, LenBytes: 8, Seed: 7}

	sess, err := nab.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(ctx, []byte("nope")); err == nil {
		t.Error("submit accepted a wrong-length payload")
	}
	seq, err := sess.Submit(ctx, mkPayloads(1, cfg.LenBytes)[0])
	if err != nil || seq != 1 {
		t.Fatalf("submit = (%d, %v), want (1, nil)", seq, err)
	}
	if err := sess.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain has completed, so the session has ended: terminal error.
	if _, err := sess.Submit(ctx, mkPayloads(1, cfg.LenBytes)[0]); !errors.Is(err, nab.ErrSessionClosed) {
		t.Errorf("submit after completed drain = %v, want ErrSessionClosed", err)
	}
	if n := len(sess.Commits()); n != 1 {
		t.Errorf("drained session holds %d commits, want 1", n)
	}
	if err := sess.Err(); err != nil {
		t.Errorf("clean drain left error %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := sess.Err(); err != nil {
		t.Errorf("close after clean drain left error %v", err)
	}
	settleGoroutines(t, base)

	// Abortive close (no drain): the engine is torn down mid-stream.
	sess2, err := nab.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.Close(); err != nil {
		t.Errorf("abortive close: %v", err)
	}
	if _, err := sess2.Submit(ctx, mkPayloads(1, cfg.LenBytes)[0]); !errors.Is(err, nab.ErrSessionClosed) {
		t.Errorf("submit after close = %v, want ErrSessionClosed", err)
	}
	settleGoroutines(t, base)

	// Option conflicts fail fast.
	for name, open := range map[string]func() (*nab.Session, error){
		"lockstep+window": func() (*nab.Session, error) {
			return nab.Open(ctx, cfg, nab.WithLockstep(), nab.WithWindow(4))
		},
	} {
		if s, err := open(); err == nil {
			s.Close()
			t.Errorf("%s: conflicting options accepted", name)
		}
	}
}

// TestWithClusterRejectsNonZeroConfig: a cluster session takes its whole
// engine configuration from the cluster config, so Open must refuse any
// Config field rather than boot and silently ignore it — checked on a
// valid reserved K4 cluster, opening the source's host.
func TestWithClusterRejectsNonZeroConfig(t *testing.T) {
	ctx := context.Background()
	ccfg, rsv := sessionDiffConfig(t, nab.CompleteGraph(4, 2), 1, 1, 2, nil)
	for name, cfg := range map[string]nab.Config{
		"graph":       {Graph: nab.CompleteGraph(4, 2)},
		"source":      {Source: 1},
		"f":           {F: 2},
		"len":         {LenBytes: 24},
		"seed":        {Seed: 7},
		"adversaries": {Adversaries: map[nab.NodeID]nab.Adversary{3: nab.CrashAdversary()}},
	} {
		s, err := nab.Open(ctx, cfg, nab.WithCluster(ccfg, ccfg.Source, nab.ClusterOptions{
			BootTimeout: time.Second, Reservation: rsv,
		}))
		if err == nil {
			s.Close()
			t.Errorf("%s: non-zero Config accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "pass a zero Config") {
			t.Errorf("%s: error %q does not ask for a zero Config", name, err)
		}
	}
}

// TestOpenRejectsStrayTransportOptions: WithTransportOptions tunes only
// the pipelined engine's in-process bus. Next to an engine or transport
// that runs no such bus, Open must refuse it rather than silently drop
// the pacing or chaos it carries.
func TestOpenRejectsStrayTransportOptions(t *testing.T) {
	ctx := context.Background()
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 2), Source: 1, F: 1, LenBytes: 8, Seed: 1}
	chaos := nab.WithTransportOptions(nab.TransportOptions{Chaos: &nab.ChaosConfig{Seed: 1}})
	for name, open := range map[string]func() (*nab.Session, error){
		"lockstep": func() (*nab.Session, error) {
			return nab.Open(ctx, cfg, nab.WithLockstep(), chaos)
		},
		"transport": func() (*nab.Session, error) {
			tr, err := nab.NewTCPTransport(cfg.Graph)
			if err != nil {
				t.Fatal(err)
			}
			s, err := nab.Open(ctx, cfg, nab.WithTransport(tr), chaos)
			if err != nil {
				tr.Close() // a failed Open does not take ownership
			}
			return s, err
		},
		"cluster": func() (*nab.Session, error) {
			return nab.Open(ctx, nab.Config{}, nab.WithCluster(&nab.ClusterConfig{}, 1, nab.ClusterOptions{}), chaos)
		},
	} {
		s, err := open()
		if err == nil {
			s.Close()
			t.Errorf("%s: WithTransportOptions accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "drop the conflicting options") {
			t.Errorf("%s: error %q does not name the option conflict", name, err)
		}
	}
}

// TestOpenRejectsBadSnapshotInterval pins the snapshot interval's domain:
// a negative interval (which would never snapshot nor compact) and any
// interval on a cluster session (whose logs snapshot at rollback floors)
// are refused instead of being silently ignored.
func TestOpenRejectsBadSnapshotInterval(t *testing.T) {
	ctx := context.Background()
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 2), Source: 1, F: 1, LenBytes: 8, Seed: 1}
	for name, tc := range map[string]struct {
		open func() (*nab.Session, error)
		want string
	}{
		"negative": {func() (*nab.Session, error) {
			return nab.Open(ctx, cfg, nab.WithDurability(t.TempDir()), nab.WithSnapshotInterval(-1))
		}, "WithSnapshotInterval(-1)"},
		"cluster": {func() (*nab.Session, error) {
			return nab.Open(ctx, nab.Config{}, nab.WithCluster(&nab.ClusterConfig{}, 1, nab.ClusterOptions{}),
				nab.WithDurability(t.TempDir()), nab.WithSnapshotInterval(4))
		}, "drop the conflicting options"},
	} {
		s, err := tc.open()
		if err == nil {
			s.Close()
			t.Errorf("%s: snapshot interval accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, tc.want)
		}
	}
}

// TestSessionLockstepMatchesRunner pins the lockstep adapter to the
// original Runner: same seeds, same payloads, same outputs.
func TestSessionLockstepMatchesRunner(t *testing.T) {
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 2), Source: 1, F: 1, LenBytes: 16, Seed: 3,
		Adversaries: map[nab.NodeID]nab.Adversary{4: nab.SeededRandomAdversary(99)}}
	payloads := mkPayloads(4, cfg.LenBytes)

	runner, err := nab.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(payloads)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Adversaries = map[nab.NodeID]nab.Adversary{4: nab.SeededRandomAdversary(99)}
	sess, err := nab.Open(context.Background(), cfg, nab.WithLockstep())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, _ := feedAndCollect(t, sess, payloads)
	for i, w := range want.Instances {
		for v, out := range w.Outputs {
			if !bytes.Equal(got[i].Outputs[v], out) {
				t.Errorf("instance %d: node %d output %x, want %x", i+1, v, got[i].Outputs[v], out)
			}
		}
	}
}

func ExampleOpen() {
	g := nab.CompleteGraph(4, 1)
	ctx := context.Background()
	sess, err := nab.Open(ctx, nab.Config{Graph: g, Source: 1, F: 1, LenBytes: 8, Seed: 1},
		nab.WithWindow(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sess.Close()
	go func() {
		for _, p := range [][]byte{[]byte("payload1"), []byte("payload2")} {
			if _, err := sess.Submit(ctx, p); err != nil {
				return
			}
		}
		sess.Drain(ctx)
	}()
	for c := range sess.Commits() {
		fmt.Printf("instance %d: %s\n", c.Seq, c.Result.Outputs[2])
	}
	// Output:
	// instance 1: payload1
	// instance 2: payload2
}

// TestSessionCloseReleasesBlockedSubmit pins the teardown ordering:
// Close must cancel the engine *before* waiting for the submission
// stream, so a producer blocked on backpressure (holding the submit
// lock) is released rather than deadlocking Close.
func TestSessionCloseReleasesBlockedSubmit(t *testing.T) {
	ctx := context.Background()
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 1), Source: 1, F: 1, LenBytes: 8, Seed: 7}
	sess, err := nab.Open(ctx, cfg, nab.WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	payload := mkPayloads(1, cfg.LenBytes)[0]
	producerErr := make(chan error, 1)
	go func() {
		for {
			if _, err := sess.Submit(ctx, payload); err != nil {
				producerErr <- err
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond) // nobody consumes: the producer is now blocked

	closed := make(chan error, 1)
	go func() { closed <- sess.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Close deadlocked behind a blocked Submit")
	}
	select {
	case err := <-producerErr:
		if err == nil {
			t.Error("blocked Submit returned nil after Close")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("blocked Submit never released")
	}
}

// transportCounters scrapes the default registry for the wire-layer
// totals: connections dialed, frames drained through coalescing writers,
// and frames accepted by Send summed over every link.
func transportCounters(t *testing.T) (dials, writerFrames, framesSent float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			continue
		}
		switch {
		case name == "nab_transport_dials_total":
			dials = v
		case name == "nab_transport_writer_frames_total":
			writerFrames = v
		case strings.HasPrefix(name, "nab_transport_frames_sent_total{"):
			framesSent += v
		}
	}
	return
}

// TestLoopbackTCPStaysPhysical: a K7 session over NewTCPTransport opens
// one real connection per directed link and pushes every frame Send
// accepted through a socket writer — no link short-circuits in memory.
func TestLoopbackTCPStaysPhysical(t *testing.T) {
	g := nab.CompleteGraph(7, 1)
	tr, err := nab.NewTCPTransport(g)
	if err != nil {
		t.Fatal(err)
	}
	dials0, writer0, sent0 := transportCounters(t)
	sess, err := nab.Open(context.Background(), nab.Config{Graph: g, Source: 1, F: 2, LenBytes: 24, Seed: 7},
		nab.WithWindow(4), nab.WithTransport(tr))
	if err != nil {
		t.Fatal(err)
	}
	feedAndCollect(t, sess, mkPayloads(6, 24))
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	dials, writer, sent := transportCounters(t)
	if got, want := dials-dials0, float64(len(g.Edges())); got != want {
		t.Errorf("session dialed %v connections, want one per directed link (%v)", got, want)
	}
	if sent == sent0 || writer-writer0 != sent-sent0 {
		t.Errorf("%v frames crossed socket writers, %v were sent: some link is not a socket", writer-writer0, sent-sent0)
	}
}
