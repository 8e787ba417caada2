package runtime_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nab/internal/adversary"
	"nab/internal/core"
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
// run entry point — validating up front so a malformed input rejects the
// whole batch before any instance executes or commits.
func runBatch(rt *runtime.Runtime, inputs [][]byte) (*runtime.Result, error) {
	if err := rt.ValidateInputs(inputs); err != nil {
		return nil, err
	}
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
// adversary scenario on every topology, the pipelined runtime's committed
// outputs (and dispute evolution) byte-match the lockstep core.Runner.
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
					g := got.Instances[i]
					if g.K != w.K {
						t.Errorf("instance %d: K = %d, want %d", i+1, g.K, w.K)
					}
					if len(g.Outputs) != len(w.Outputs) {
						t.Errorf("instance %d: %d outputs, want %d", i+1, len(g.Outputs), len(w.Outputs))
					}
					for v, out := range w.Outputs {
						if !bytes.Equal(g.Outputs[v], out) {
							t.Errorf("instance %d: node %d output %x, want %x", i+1, v, g.Outputs[v], out)
						}
					}
					if g.Mismatch != w.Mismatch || g.Phase3 != w.Phase3 {
						t.Errorf("instance %d: mismatch/phase3 = %v/%v, want %v/%v", i+1, g.Mismatch, g.Phase3, w.Mismatch, w.Phase3)
					}
					if !reflect.DeepEqual(g.NewDisputes, w.NewDisputes) {
						t.Errorf("instance %d: disputes %v, want %v", i+1, g.NewDisputes, w.NewDisputes)
					}
					if !reflect.DeepEqual(g.NewFaulty, w.NewFaulty) {
						t.Errorf("instance %d: faulty %v, want %v", i+1, g.NewFaulty, w.NewFaulty)
					}
					if g.Phase1Time != w.Phase1Time || g.EqualityTime != w.EqualityTime || g.FlagTime != w.FlagTime {
						t.Errorf("instance %d: phase times (%v,%v,%v), want (%v,%v,%v)",
							i+1, g.Phase1Time, g.EqualityTime, g.FlagTime, w.Phase1Time, w.EqualityTime, w.FlagTime)
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
// run instead of deadlocking the actors on never-arriving markers.
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
		t.Fatal("Run did not return after Close (actor deadlock)")
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

// TestRunBatchRejectsMalformedUpFront pins the deprecated batch
// contract: a bad input anywhere in the batch fails the whole call
// before any instance executes, commits or advances the schedule.
func TestRunBatchRejectsMalformedUpFront(t *testing.T) {
	cfg := core.Config{Graph: topo.CompleteBi(4, 1), Source: 1, F: 1, LenBytes: 16, Seed: 2}
	rt, err := runtime.New(runtime.Config{Config: cfg, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	good := mkInputs(2, 16)
	if _, err := runBatch(rt, [][]byte{good[0], good[1], []byte("short")}); err == nil {
		t.Fatal("batch with a malformed input accepted")
	}
	// Nothing committed: the next batch still starts at instance 1.
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
	b := core.NewSnapshotBuilder(cfg.Graph)
	for _, ir := range want.Instances[:cut] {
		if err := b.Fold(ir); err != nil {
			t.Fatal(err)
		}
	}
	if b.Gen() == 0 {
		t.Fatal("the prefix made no dispute progress; the snapshot would carry nothing")
	}

	for _, tc := range []struct {
		name string
		base core.SnapshotState
		tail []*core.InstanceResult
	}{
		{"ZeroBaseFullPrefix", core.SnapshotState{}, want.Instances[:cut]},
		{"SnapshotAtCut", b.State(), nil},
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
				w := want.Instances[cut+i]
				if ir.K != w.K || ir.Mismatch != w.Mismatch || ir.Phase3 != w.Phase3 || ir.TotalBits != w.TotalBits {
					t.Errorf("instance %d: k/mismatch/phase3/bits diverged after restore", w.K)
				}
				if !reflect.DeepEqual(ir.Outputs, w.Outputs) {
					t.Errorf("instance %d: outputs diverged after restore", w.K)
				}
				if !reflect.DeepEqual(ir.NewDisputes, w.NewDisputes) || !reflect.DeepEqual(ir.NewFaulty, w.NewFaulty) {
					t.Errorf("instance %d: dispute findings diverged after restore", w.K)
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
