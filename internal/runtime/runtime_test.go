package runtime_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/flight"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/topo"
	"nab/internal/transport"
)

// mkInputs builds q deterministic distinct inputs.
func mkInputs(q, lenBytes int) [][]byte {
	out := make([][]byte, q)
	for i := range out {
		out[i] = make([]byte, lenBytes)
		for j := range out[i] {
			out[i][j] = byte(i*31 + j*7 + 1)
		}
	}
	return out
}

// runBatch feeds a fixed batch through RunStream — the runtime's only
// run entry point.
func runBatch(rt *runtime.Runtime, inputs [][]byte) (*runtime.Result, error) {
	subs := make(chan []byte, len(inputs))
	for _, in := range inputs {
		subs <- in
	}
	close(subs)
	return rt.RunStream(context.Background(), subs, nil)
}

// scenario names an adversary assignment; mk builds fresh adversary state
// per runner so lockstep and pipelined replays start identical.
type scenario struct {
	name   string
	window int // 0 = default (4); stateful adversaries need 1 for replay
	mk     func() map[graph.NodeID]core.Adversary
}

func scenarios(victim graph.NodeID) []scenario {
	return []scenario{
		{name: "Honest", mk: func() map[graph.NodeID]core.Adversary { return nil }},
		{name: "Crash", mk: func() map[graph.NodeID]core.Adversary {
			return map[graph.NodeID]core.Adversary{victim: adversary.Crash{}}
		}},
		{name: "BlockFlipper", mk: func() map[graph.NodeID]core.Adversary {
			return map[graph.NodeID]core.Adversary{victim: &adversary.BlockFlipper{}}
		}},
		{name: "CodedCorruptor", mk: func() map[graph.NodeID]core.Adversary {
			return map[graph.NodeID]core.Adversary{victim: &adversary.CodedCorruptor{}}
		}},
		{name: "FalseAlarm", mk: func() map[graph.NodeID]core.Adversary {
			return map[graph.NodeID]core.Adversary{victim: adversary.FalseAlarm{}}
		}},
		{name: "Random", window: 1, mk: func() map[graph.NodeID]core.Adversary {
			return map[graph.NodeID]core.Adversary{victim: &adversary.Random{RNG: rand.New(rand.NewSource(99))}}
		}},
		// The instance-scoped form (core.InstanceScoped) draws fresh
		// per-instance streams, so it byte-matches lockstep at the
		// default window too.
		{name: "SeededRandom", mk: func() map[graph.NodeID]core.Adversary {
			return map[graph.NodeID]core.Adversary{victim: &adversary.Random{Seed: 99}}
		}},
	}
}

type topology struct {
	name   string
	g      *graph.Directed
	source graph.NodeID
	f      int
	victim graph.NodeID
}

func topologies(t *testing.T) []topology {
	circ, err := topo.Circulant(9, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := topo.OneThinLink(7, 2, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []topology{
		{name: "K7", g: topo.CompleteBi(7, 2), source: 1, f: 2, victim: 3},
		{name: "Circulant9", g: circ, source: 1, f: 1, victim: 4},
		{name: "OneThinLink7", g: thin, source: 1, f: 1, victim: 2},
	}
}

// TestOutputsMatchLockstep is the runtime's core acceptance: for every
// adversary scenario on every topology, every instance the pipelined
// runtime commits equals the lockstep core.Runner's as a whole
// InstanceResult — outputs, schedule, dispute findings and the model
// quantities (bits, phase times) alike — and dispute evolution matches.
func TestOutputsMatchLockstep(t *testing.T) {
	const q, lenBytes = 5, 24
	for _, tp := range topologies(t) {
		for _, sc := range scenarios(tp.victim) {
			t.Run(fmt.Sprintf("%s/%s", tp.name, sc.name), func(t *testing.T) {
				inputs := mkInputs(q, lenBytes)
				cfg := core.Config{
					Graph: tp.g, Source: tp.source, F: tp.f,
					LenBytes: lenBytes, Seed: 7, Adversaries: sc.mk(),
				}
				lock, err := core.NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := lock.Run(inputs)
				if err != nil {
					t.Fatal(err)
				}

				cfg.Adversaries = sc.mk()
				rt, err := runtime.New(runtime.Config{Config: cfg, Window: sc.window})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				got, err := runBatch(rt, inputs)
				if err != nil {
					t.Fatal(err)
				}

				if len(got.Instances) != len(want.Instances) {
					t.Fatalf("committed %d instances, want %d", len(got.Instances), len(want.Instances))
				}
				for i, w := range want.Instances {
					if g := got.Instances[i]; !reflect.DeepEqual(g, w) {
						t.Errorf("instance %d: runtime %+v, lockstep %+v", i+1, g, w)
					}
				}
				// Dispute state must have evolved identically.
				if !lock.InstanceGraph().Equal(rt.InstanceGraph()) {
					t.Error("final instance graphs differ")
				}
				if lock.Disputes().String() != rt.Disputes().String() {
					t.Errorf("final dispute sets differ: %v vs %v", lock.Disputes(), rt.Disputes())
				}
			})
		}
	}
}

// TestSeededRandomReplayDeterminism pins the fix for the old
// determinism caveat (stateful adversaries were only reproducible at
// Window=1): the seeded adversary.Random implements core.InstanceScoped,
// so a windowed pipelined run — including barrier replays forced by a
// false alarmer — commits byte-identical outputs run after run, and
// matches the lockstep Runner.
func TestSeededRandomReplayDeterminism(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	mkCfg := func() core.Config {
		return core.Config{
			Graph: g, Source: 1, F: 2, LenBytes: 16, Seed: 5,
			Adversaries: map[graph.NodeID]core.Adversary{
				3: &adversary.Random{Seed: 123},
				5: adversary.FalseAlarm{}, // force dispute barriers + replays
			},
		}
	}
	inputs := mkInputs(6, 16)

	lock, err := core.NewRunner(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lock.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}

	var prev *runtime.Result
	for trial := 0; trial < 2; trial++ {
		rt, err := runtime.New(runtime.Config{Config: mkCfg(), Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runBatch(rt, inputs)
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Instances {
			for v, out := range w.Outputs {
				if !bytes.Equal(got.Instances[i].Outputs[v], out) {
					t.Fatalf("trial %d instance %d: node %d diverged from lockstep", trial, i+1, v)
				}
			}
			if got.Instances[i].Mismatch != w.Mismatch || got.Instances[i].Phase3 != w.Phase3 {
				t.Fatalf("trial %d instance %d: schedule diverged from lockstep", trial, i+1)
			}
		}
		if prev != nil {
			for i := range prev.Instances {
				if !reflect.DeepEqual(prev.Instances[i].Outputs, got.Instances[i].Outputs) {
					t.Fatalf("instance %d: two windowed runs diverged", i+1)
				}
			}
		}
		prev = got
	}
	if prev.Replays == 0 {
		t.Error("scenario exercised no barrier replays; weaken it not")
	}
}

// TestDisputeBarrierReplays checks the speculation machinery: with a
// false-alarming node and a full window, the barrier aborts the
// speculative instances and re-runs them on the fresh snapshot.
func TestDisputeBarrierReplays(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	cfg := core.Config{
		Graph: g, Source: 1, F: 2, LenBytes: 16, Seed: 3,
		Adversaries: map[graph.NodeID]core.Adversary{4: adversary.FalseAlarm{}},
	}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := runBatch(rt, mkInputs(6, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Instances[0].Phase3 {
		t.Error("instance 1 should have run dispute control")
	}
	if res.Replays == 0 {
		t.Error("expected speculative replays at the dispute barrier")
	}
	for i, ir := range res.Instances[1:] {
		if ir.Phase3 {
			t.Errorf("instance %d ran dispute control after the alarmer was excluded", i+2)
		}
	}
}

// TestPlanBuildsOncePerGenerationPipelined counts plan builds with the
// flight recorder on: at W = 4 on the dispute_churn shape (K7, f = 2,
// L = 1 KiB, alarm at 3, flip at 5) the runtime builds one plan per
// generation, three in all, however many concurrent flights and replays
// share each — the count the lockstep runner records on the same run.
func TestPlanBuildsOncePerGenerationPipelined(t *testing.T) {
	flight.Default().Enable(1 << 16)
	defer flight.Default().Disable() // the recorder is process-global
	cfg := core.Config{
		Graph: topo.CompleteBi(7, 1), Source: 1, F: 2, LenBytes: 1024, Seed: 5,
		Adversaries: map[graph.NodeID]core.Adversary{3: adversary.FalseAlarm{}, 5: &adversary.BlockFlipper{}},
	}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := runBatch(rt, mkInputs(16, cfg.LenBytes))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Error("expected speculative replays at the dispute barriers")
	}
	builds := 0
	for _, ev := range flight.Default().Events() {
		if ev.Type == flight.EvPhase && ev.Step == flight.PhasePlan {
			builds++
		}
	}
	if builds != 3 {
		t.Fatalf("%d plan builds, want 3 (one per generation)", builds)
	}
}

// TestLaunchNumbersIgnoreArrivalTiming pins what keeps cluster processes'
// frame routing aligned: each execution's launch number is the same
// whether the submissions were all queued up front or each arrived only
// after the previous commit, across dispute barriers (alarm at 3, flip
// at 5) that fall on a window the late feed had not filled.
func TestLaunchNumbersIgnoreArrivalTiming(t *testing.T) {
	cfg := core.Config{
		Graph: topo.CompleteBi(7, 1), Source: 1, F: 2, LenBytes: 16, Seed: 5,
		Adversaries: map[graph.NodeID]core.Adversary{3: adversary.FalseAlarm{}, 5: &adversary.BlockFlipper{}},
	}
	const q = 10
	inputs := mkInputs(q, cfg.LenBytes)
	launches := func(late bool) map[[2]int32]uint64 {
		t.Helper()
		flight.Default().Enable(1 << 16)
		defer flight.Default().Disable() // the recorder is process-global
		rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		subs := make(chan []byte, q)
		var commit func(*core.InstanceResult) error
		if late {
			subs <- inputs[0]
			commit = func(ir *core.InstanceResult) error {
				if ir.K < q {
					subs <- inputs[ir.K]
				} else {
					close(subs)
				}
				return nil
			}
		} else {
			for _, in := range inputs {
				subs <- in
			}
			close(subs)
		}
		res, err := rt.RunStream(context.Background(), subs, commit)
		if err != nil {
			t.Fatal(err)
		}
		if res.Replays == 0 && !late {
			t.Fatal("expected speculative replays at the dispute barriers")
		}
		got := map[[2]int32]uint64{} // (instance, generation) -> launch
		for _, ev := range flight.Default().Events() {
			if ev.Type == flight.EvLaunch {
				got[[2]int32{ev.K, ev.Gen}] = ev.Inst
			}
		}
		return got
	}
	early, late := launches(false), launches(true)
	for key, n := range late {
		if want, ok := early[key]; !ok || n != want {
			t.Errorf("instance %d gen %d: launch %d with late submissions, %d with all queued", key[0], key[1], n, want)
		}
	}
}

// TestStreamingRuns checks that consecutive Run calls continue the
// instance sequence and dispute state — the daemon's streaming mode.
func TestStreamingRuns(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	const lenBytes = 16
	inputs := mkInputs(6, lenBytes)
	cfg := core.Config{
		Graph: g, Source: 1, F: 2, LenBytes: lenBytes, Seed: 5,
		Adversaries: map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}},
	}
	lock, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lock.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Adversaries = map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var got []*core.InstanceResult
	var batchBits []int64
	for _, batch := range [][][]byte{inputs[:2], inputs[2:5], inputs[5:]} {
		res, err := runBatch(rt, batch)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Instances...)
		var bits int64
		for _, b := range res.LinkBits {
			bits += b
		}
		batchBits = append(batchBits, bits)
	}
	// LinkBits must be per-run deltas: batch 1 contains the dispute-
	// control transcript broadcast and dwarfs the later clean batches;
	// cumulative counters would only ever grow.
	if batchBits[2] >= batchBits[0] {
		t.Errorf("per-run link bits not a delta: batches accounted %v", batchBits)
	}
	if len(got) != len(want.Instances) {
		t.Fatalf("committed %d instances, want %d", len(got), len(want.Instances))
	}
	for i, w := range want.Instances {
		if got[i].K != w.K {
			t.Errorf("instance %d: K = %d, want %d", i, got[i].K, w.K)
		}
		for v, out := range w.Outputs {
			if !bytes.Equal(got[i].Outputs[v], out) {
				t.Errorf("instance %d: node %d output differs across streamed batches", i+1, v)
			}
		}
	}
}

// TestCloseUnblocksRun checks that closing the runtime mid-run fails the
// run instead of deadlocking the executions on never-arriving markers.
func TestCloseUnblocksRun(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	cfg := core.Config{Graph: g, Source: 1, F: 2, LenBytes: 64, Seed: 1}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := runBatch(rt, mkInputs(64, 64))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the pipeline get going
	rt.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("Run succeeded despite mid-run Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Close (execution deadlock)")
	}
}

// TestTCPTransportRun runs the runtime over the loopback TCP transport.
func TestTCPTransportRun(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	tr, err := transport.NewTCP(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Graph: g, Source: 1, F: 1, LenBytes: 8, Seed: 11}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 2, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	inputs := mkInputs(3, 8)
	res, err := runBatch(rt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ir := range res.Instances {
		for v, out := range ir.Outputs {
			if !bytes.Equal(out, inputs[i]) {
				t.Errorf("instance %d: node %d decided %x, want %x", i+1, v, out, inputs[i])
			}
		}
	}
	if res.Dropped != 0 {
		t.Errorf("honest run dropped %d emissions", res.Dropped)
	}
	bits := int64(0)
	for _, b := range res.LinkBits {
		bits += b
	}
	if bits == 0 {
		t.Error("TCP transport accounted no link bits")
	}
}

// TestAggregateReport sanity-checks the throughput accounting against the
// capacity analysis.
func TestAggregateReport(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	cfg := core.Config{Graph: g, Source: 1, F: 2, LenBytes: 64, Seed: 2}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := runBatch(rt, mkInputs(8, 64))
	if err != nil {
		t.Fatal(err)
	}
	// capacity.Analyze is available via the facade; keep the dependency
	// internal here.
	rep := rt.Report(res, nil)
	if rep.Instances != 8 || rep.LenBits != 512 {
		t.Errorf("report counts: %+v", rep)
	}
	if rep.SequentialTime <= 0 || rep.LinkTime <= 0 {
		t.Errorf("report model times: %+v", rep)
	}
	if rep.LinkTime > rep.SequentialTime {
		t.Errorf("busiest-link time %v exceeds sequential time %v", rep.LinkTime, rep.SequentialTime)
	}
	if rep.PipelinedThroughput < rep.SequentialThroughput {
		t.Errorf("pipelining lowered model throughput: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
}

// TestRunStreamIncremental drives the streaming scheduler the way a live
// session does — submissions trickle in while earlier instances are still
// in flight, across a dispute-heavy scenario — and requires the committed
// sequence to byte-match the lockstep oracle, with per-commit hooks fired
// strictly in order.
func TestRunStreamIncremental(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	mkCfg := func() core.Config {
		return core.Config{
			Graph: g, Source: 1, F: 2, LenBytes: 16, Seed: 5,
			Adversaries: map[graph.NodeID]core.Adversary{
				3: adversary.FalseAlarm{}, // dispute barriers mid-stream
			},
		}
	}
	const q = 6
	inputs := mkInputs(q, 16)

	lock, err := core.NewRunner(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lock.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := runtime.New(runtime.Config{Config: mkCfg(), Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	subs := make(chan []byte) // unbuffered: the scheduler pulls one by one
	go func() {
		defer close(subs)
		for _, in := range inputs {
			subs <- in
			time.Sleep(time.Millisecond) // arrivals straggle behind the pipeline
		}
	}()
	// With a commit sink the reports go to the sink alone; the result keeps
	// the aggregates.
	var commits []*core.InstanceResult
	got, err := rt.RunStream(context.Background(), subs, func(ir *core.InstanceResult) error {
		commits = append(commits, ir)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Committed() != q || len(commits) != q {
		t.Fatalf("committed %d instances (%d hooks), want %d", got.Committed(), len(commits), q)
	}
	if got.Instances != nil {
		t.Errorf("result retains %d reports beside a commit sink", len(got.Instances))
	}
	var sunk core.RunResult
	sunk.LenBits = got.LenBits
	for _, ir := range commits {
		sunk.Add(ir, true)
	}
	if got.TotalTime() != sunk.TotalTime() || got.DisputePhases() != sunk.DisputePhases() || got.Throughput() != sunk.Throughput() {
		t.Errorf("aggregates: time %v, %d dispute phases, throughput %v; summed over the sink %v, %d, %v",
			got.TotalTime(), got.DisputePhases(), got.Throughput(), sunk.TotalTime(), sunk.DisputePhases(), sunk.Throughput())
	}
	if got.DisputePhases() != want.DisputePhases() {
		t.Errorf("%d dispute phases, lockstep %d", got.DisputePhases(), want.DisputePhases())
	}
	for i, w := range want.Instances {
		gi := commits[i]
		if gi.K != i+1 {
			t.Errorf("commit hook %d fired for instance %d", i+1, gi.K)
		}
		if gi.Mismatch != w.Mismatch || gi.Phase3 != w.Phase3 {
			t.Errorf("instance %d: mismatch/phase3 = %v/%v, want %v/%v", i+1, gi.Mismatch, gi.Phase3, w.Mismatch, w.Phase3)
		}
		for v, out := range w.Outputs {
			if !bytes.Equal(gi.Outputs[v], out) {
				t.Errorf("instance %d: node %d output %x, want %x", i+1, v, gi.Outputs[v], out)
			}
		}
	}
	if lock.Disputes().String() != rt.Disputes().String() {
		t.Errorf("final dispute sets differ: %v vs %v", lock.Disputes(), rt.Disputes())
	}
}

// TestRunStreamCancel cancels a stream mid-flight: RunStream must return
// ctx.Err(), reap its speculative executions, and leave the runtime
// usable for a follow-up run on the same dispute state.
func TestRunStreamCancel(t *testing.T) {
	g := topo.CompleteBi(7, 2)
	cfg := core.Config{
		Graph: g, Source: 1, F: 2, LenBytes: 16, Seed: 5,
		Adversaries: map[graph.NodeID]core.Adversary{
			3: adversary.FalseAlarm{}, // cancellation lands mid-dispute
		},
	}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := mkInputs(1, 16)[0]
	subs := make(chan []byte, 8) // never closed: an open-ended stream
	for i := 0; i < 8; i++ {
		subs <- in
	}
	committed := 0
	_, err = rt.RunStream(ctx, subs, func(ir *core.InstanceResult) error {
		committed++
		if committed == 2 {
			cancel() // later instances are speculative in flight right now
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunStream = %v, want context.Canceled", err)
	}
	if committed < 2 {
		t.Fatalf("canceled after %d commits, want >= 2", committed)
	}

	// The runtime survives: a fresh bounded stream commits more instances
	// on the dispute state the canceled run left behind.
	subs2 := make(chan []byte, 2)
	subs2 <- in
	subs2 <- in
	close(subs2)
	res, err := rt.RunStream(context.Background(), subs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 2 {
		t.Fatalf("follow-up run committed %d instances, want 2", len(res.Instances))
	}
	if res.Instances[0].K != committed+1 {
		t.Errorf("follow-up resumed at instance %d, want %d", res.Instances[0].K, committed+1)
	}
}

// TestRunBatchRejectsMalformedUpFront: RunStream checks every
// submission against the configured input size as it pulls it, so a
// malformed one fails the run before it executes, commits or advances
// the schedule.
func TestRunBatchRejectsMalformedUpFront(t *testing.T) {
	cfg := core.Config{Graph: topo.CompleteBi(4, 1), Source: 1, F: 1, LenBytes: 16, Seed: 2}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	good := mkInputs(1, 16)
	if _, err := runBatch(rt, [][]byte{[]byte("short")}); err == nil || !strings.Contains(err.Error(), "input is 5 bytes, want 16") {
		t.Fatalf("short submission: err = %v, want the input-size error", err)
	}
	// Nothing committed: the next stream still starts at instance 1.
	res, err := runBatch(rt, good[:1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances[0].K != 1 {
		t.Errorf("failed batch advanced the schedule: next instance %d, want 1", res.Instances[0].K)
	}
}

// TestRestoreResumesMidSequence restores a fresh runtime at a mid-stream
// watermark on a rejoin-style launch base — once from the zero base with
// the committed prefix as the tail (an uncompacted WAL), once from a
// snapshot of that prefix with no tail (a compacted one) — and finishes
// the workload: the tail must commit byte-identically to the
// uninterrupted run, dispute evolution included.
func TestRestoreResumesMidSequence(t *testing.T) {
	cfg := core.Config{
		Graph: topo.CompleteBi(4, 1), Source: 1, F: 1, LenBytes: 16, Seed: 5,
		Adversaries: map[graph.NodeID]core.Adversary{3: adversary.FalseAlarm{}},
	}
	inputs := mkInputs(8, cfg.LenBytes)

	full, err := runtime.New(runtime.Config{Config: cfg, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	want, err := runBatch(full, inputs)
	if err != nil {
		t.Fatal(err)
	}

	const cut = 3
	ds := core.NewDisputeState(cfg.Graph)
	for _, ir := range want.Instances[:cut] {
		if err := full.Protocol().Fold(ds, ir); err != nil {
			t.Fatal(err)
		}
	}
	if ds.Gen() == 0 {
		t.Fatal("the prefix made no dispute progress; the snapshot would carry nothing")
	}

	for _, tc := range []struct {
		name string
		base core.SnapshotState
		tail []*core.InstanceResult
	}{
		{"ZeroBaseFullPrefix", core.SnapshotState{}, want.Instances[:cut]},
		{"SnapshotAtCut", ds.State(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := runtime.New(runtime.Config{Config: cfg, Window: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			if err := rt.RestoreSnapshot(1<<32, tc.base, tc.tail); err != nil {
				t.Fatal(err)
			}
			if got := rt.Committed(); got != cut {
				t.Fatalf("restored runtime reports %d committed, want %d", got, cut)
			}
			res, err := runBatch(rt, inputs[cut:])
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Instances) != len(inputs)-cut {
				t.Fatalf("resumed run committed %d instances, want %d", len(res.Instances), len(inputs)-cut)
			}
			for i, ir := range res.Instances {
				if w := want.Instances[cut+i]; !reflect.DeepEqual(ir, w) {
					t.Errorf("instance %d diverged after restore: %+v, want %+v", w.K, ir, w)
				}
			}
			if got, want := rt.Disputes().String(), full.Disputes().String(); got != want {
				t.Errorf("dispute set after restore %q, want %q", got, want)
			}
		})
	}

	// RestoreSnapshot validates its input: a tail that skips an instance,
	// an out-of-order tail and a negative watermark are rejected.
	bad, err := runtime.New(runtime.Config{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	w := want.Instances
	if err := bad.RestoreSnapshot(0, core.SnapshotState{}, []*core.InstanceResult{w[0], w[2]}); err == nil {
		t.Error("RestoreSnapshot accepted a tail that skips an instance")
	}
	if err := bad.RestoreSnapshot(0, core.SnapshotState{}, []*core.InstanceResult{w[1], w[0]}); err == nil {
		t.Error("RestoreSnapshot accepted an out-of-order tail")
	}
	if err := bad.RestoreSnapshot(0, core.SnapshotState{K: -1}, nil); err == nil {
		t.Error("RestoreSnapshot accepted a negative watermark")
	}
}

// hostileLinks wraps a transport so that node dup sends every step frame
// twice, each one that carries packets after an extra frame whose body is
// not a packet list, and node slow's frames leave late. Under one lock it records every step frame a
// receive loop takes in, and flags any step frame sent for step s+1 — a
// node released step s — before every in-neighbour's step-s frame arrived.
type hostileLinks struct {
	transport.Transport
	g         *graph.Directed
	dup, slow graph.NodeID

	mu       sync.Mutex
	arrived  map[frameAt]bool
	junkSent bool
	early    []string
}

type frameAt struct {
	inst     uint64
	from, to graph.NodeID
	step     uint32
}

func (h *hostileLinks) Dial(from, to graph.NodeID) (transport.Link, error) {
	l, err := h.Transport.Dial(from, to)
	if err != nil {
		return nil, err
	}
	return hostileLink{h, l}, nil
}

func (h *hostileLinks) Recv(self graph.NodeID) (*transport.Message, error) {
	m, err := h.Transport.Recv(self)
	if err == nil {
		if m.Packets != nil {
			h.mu.Lock()
			h.arrived[frameAt{m.Instance, m.From, m.To, m.Step}] = true
			h.mu.Unlock()
		}
	}
	return m, err
}

type hostileLink struct {
	h     *hostileLinks
	inner transport.Link
}

func (l hostileLink) Send(m *transport.Message) error {
	h := l.h
	h.mu.Lock()
	if s := m.Step - 1; s > 0 {
		for _, e := range h.g.InEdges(m.From) {
			if !h.arrived[frameAt{m.Instance, e.From, m.From, s}] {
				h.early = append(h.early, fmt.Sprintf("launch %d: node %d released step %d before node %d's frame", m.Instance, m.From, s, e.From))
			}
		}
	}
	// A foreign frame precedes each of dup's frames that carry packets:
	// counted as that step's frame, it would lose them.
	junk := m.From == h.dup && len(m.Packets) > 0
	h.junkSent = h.junkSent || junk
	h.mu.Unlock()
	switch m.From {
	case h.slow:
		time.Sleep(time.Millisecond)
	case h.dup:
		if junk {
			// A copy of a step frame would still be one: clear its packets.
			bad := *m
			bad.Bits, bad.Packets, bad.Body = 0, nil, []byte("not a packet list")
			if err := l.inner.Send(&bad); err != nil {
				return err
			}
		}
		if err := l.inner.Send(m); err != nil {
			return err
		}
	}
	return l.inner.Send(m)
}

// TestRepeatAndForeignFramesDoNotReleaseSteps: a step is ready when one
// frame from each in-neighbour has arrived. An in-neighbour that sends
// every step frame twice, plus frames whose body is not a packet list,
// must neither release a receiver's step before a slow third neighbour's
// frame is in nor change a committed byte. (Counting end-of-step markers
// instead, a duplicated marker stood in for the slow neighbour's.)
func TestRepeatAndForeignFramesDoNotReleaseSteps(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	mkCfg := func() core.Config {
		return core.Config{
			Graph: g, Source: 1, F: 1, LenBytes: 16, Seed: 9,
			Adversaries: map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}},
		}
	}
	inputs := mkInputs(4, 16)
	lock, err := core.NewRunner(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lock.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}

	h := &hostileLinks{
		Transport: transport.NewChan(g, transport.ChanOptions{}),
		g:         g, dup: 2, slow: 4,
		arrived: map[frameAt]bool{},
	}
	rt, err := runtime.New(runtime.Config{Config: mkCfg(), Transport: h})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := runBatch(rt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.junkSent {
		t.Fatal("the foreign frame was never sent")
	}
	for _, e := range h.early {
		t.Error(e)
	}
	for i, w := range want.Instances {
		if gi := got.Instances[i]; !reflect.DeepEqual(gi, w) {
			t.Errorf("instance %d diverged from lockstep: %+v, want %+v", i+1, gi, w)
		}
	}
	if lock.Disputes().String() != rt.Disputes().String() {
		t.Errorf("final dispute sets differ: %v vs %v", lock.Disputes(), rt.Disputes())
	}
}

// TestReorderChaosMatchesLockstep runs K7, f = 2 over a bus whose every
// link jitters and reorders half its frames, later steps of one instance
// overtaking earlier ones included: step frames are keyed by step, so
// commits and dispute evolution stay byte-identical to lockstep.
func TestReorderChaosMatchesLockstep(t *testing.T) {
	mkCfg := func() core.Config {
		return core.Config{
			Graph: topo.CompleteBi(7, 2), Source: 1, F: 2, LenBytes: 24, Seed: 4,
			Adversaries: map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}},
		}
	}
	inputs := mkInputs(4, 24)
	lock, err := core.NewRunner(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lock.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{Config: mkCfg(), ChanOptions: transport.ChanOptions{
		Chaos: &transport.ChaosConfig{Seed: 17, Default: transport.LinkChaos{
			Jitter: transport.Duration(2 * time.Millisecond), ReorderProb: 0.5,
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := runBatch(rt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Instances {
		if gi := got.Instances[i]; !reflect.DeepEqual(gi, w) {
			t.Errorf("instance %d diverged from lockstep under reorder chaos: %+v, want %+v", i+1, gi, w)
		}
	}
	if lock.Disputes().String() != rt.Disputes().String() {
		t.Errorf("final dispute sets differ: %v vs %v", lock.Disputes(), rt.Disputes())
	}
}

// TestSmallSessionAllocsPerCommit pins the runtime's garbage per commit
// in the small_chan shape — K7 with f = 2, L = 64 B, W = 4 over the
// in-process bus — where the fixed per-instance cost (flag agreement,
// relay, step frames) is the whole cost. It counts heap objects over 64
// commits after a warm-up stream has built the plan.
func TestSmallSessionAllocsPerCommit(t *testing.T) {
	const lenBytes, commits = 64, 64
	rt, err := runtime.New(runtime.Config{
		Config: core.Config{Graph: topo.CompleteBi(7, 1), Source: 1, F: 2, LenBytes: lenBytes, Seed: 1},
		Window: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := runBatch(rt, mkInputs(16, lenBytes)); err != nil {
		t.Fatal(err)
	}
	inputs := mkInputs(commits, lenBytes)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	res, err := runBatch(rt, inputs)
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != commits {
		t.Fatalf("committed %d instances, want %d", res.Committed(), commits)
	}
	per := float64(after.Mallocs-before.Mallocs) / commits
	t.Logf("%.0f objects per commit", per)
	if per > maxAllocsPerCommit {
		t.Errorf("a small K7 commit allocates %.0f objects, want <= %d", per, maxAllocsPerCommit)
	}
}

// maxAllocsPerCommit is TestSmallSessionAllocsPerCommit's bound: 1 096
// objects measured, plus 10 %.
const maxAllocsPerCommit = 1206

// TestGoroutinesPerExecution pins the runtime's goroutine budget: one
// receive loop per hosted node and one goroutine per instance execution,
// whatever the phase or step, so a K7 session with W = 4 never holds more
// than baseline + 7 + 4 + a few (the sampler among them). Per-node
// goroutines per phase would hold 7 per execution on top.
func TestGoroutinesPerExecution(t *testing.T) {
	const nodes, window, lenBytes, commits, slack = 7, 4, 64, 400, 4
	base := goruntime.NumGoroutine()
	rt, err := runtime.New(runtime.Config{
		Config: core.Config{Graph: topo.CompleteBi(nodes, 1), Source: 1, F: 2, LenBytes: lenBytes, Seed: 1},
		Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	stop, peakc := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			peak = max(peak, goruntime.NumGoroutine())
			select {
			case <-stop:
				peakc <- peak
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	res, err := runBatch(rt, mkInputs(commits, lenBytes))
	close(stop)
	peak := <-peakc
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() != commits {
		t.Fatalf("committed %d instances, want %d", res.Committed(), commits)
	}
	t.Logf("peak %d goroutines, baseline %d", peak, base)
	if limit := base + nodes + window + slack; peak > limit {
		t.Errorf("peak %d goroutines, want <= %d (baseline %d + %d nodes + W = %d + %d)", peak, limit, base, nodes, window, slack)
	}
}
