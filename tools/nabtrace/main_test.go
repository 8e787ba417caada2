package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nab/internal/flight"
)

var update = flag.Bool("update", false, "regenerate testdata fixtures")

// genDumps builds the checked-in two-process fixture: node-0 hosts the
// source and opens a dispute barrier after instance 2's commit; node-1
// receives node-0's frames (stitchable on the (link, inst, step) key)
// and goes through a rejoin round. Timestamps are synthetic nanoseconds
// on a shared clock, so the golden output is stable by construction.
func genDumps() (node0, node1 flight.Dump) {
	base := int64(1_000_000_000)
	ms := func(m int64) int64 { return base + m*1_000_000 }
	var seq0, seq1 uint64
	ev0 := func(e flight.Event) flight.Event {
		e.Seq = seq0
		seq0++
		node0.Events = append(node0.Events, e)
		return e
	}
	ev1 := func(e flight.Event) flight.Event {
		e.Seq = seq1
		seq1++
		node1.Events = append(node1.Events, e)
		return e
	}

	// Instance 1 on both processes: launch, phases, frames 0→1, commit.
	for k := int32(1); k <= 2; k++ {
		t := ms(int64(k-1) * 40)
		inst := uint64(k)
		ev0(flight.Event{Type: flight.EvLaunch, TS: t, Node: -1, Inst: inst, K: k, Gen: 0})
		ev1(flight.Event{Type: flight.EvLaunch, TS: t + 1_000_000, Node: -1, Inst: inst, K: k, Gen: 0})
		if k == 1 { // instance 1 builds generation 0's plan on node-0
			ev0(flight.Event{Type: flight.EvPhase, TS: t + 1_500_000, Node: -1, K: k, Step: flight.PhasePlan})
		}
		ev0(flight.Event{Type: flight.EvPhase, TS: t + 2_000_000, Node: -1, K: k, Step: flight.Phase1})
		ev1(flight.Event{Type: flight.EvPhase, TS: t + 3_000_000, Node: -1, K: k, Step: flight.Phase1})
		for step := uint32(1); step <= 2; step++ {
			st := t + 2_000_000 + int64(step)*2_000_000
			ev0(flight.Event{Type: flight.EvFrameSend, TS: st, Node: 0, Peer: 1, Inst: inst, Step: step, Arg: 64})
			ev1(flight.Event{Type: flight.EvFrameRecv, TS: st + 1_500_000, Node: 1, Peer: 0, Inst: inst, Step: step, Arg: 64})
		}
		ev0(flight.Event{Type: flight.EvPhase, TS: t + 10_000_000, Node: -1, K: k, Step: flight.PhaseEquality})
		ev1(flight.Event{Type: flight.EvPhase, TS: t + 11_000_000, Node: -1, K: k, Step: flight.PhaseEquality})
		ev0(flight.Event{Type: flight.EvPhase, TS: t + 14_000_000, Node: -1, K: k, Step: flight.PhaseFlags})
		ev1(flight.Event{Type: flight.EvPhase, TS: t + 15_000_000, Node: -1, K: k, Step: flight.PhaseFlags})
		ev0(flight.Event{Type: flight.EvWALAppend, TS: t + 16_000_000, Node: -1, Arg: 128})
		ev0(flight.Event{Type: flight.EvCommit, TS: t + 20_000_000, Node: -1, Inst: inst, K: k, Gen: 0, Arg: 4096})
		ev1(flight.Event{Type: flight.EvCommit, TS: t + 21_000_000, Node: -1, Inst: inst, K: k, Gen: 0, Arg: 4096})
	}
	ev0(flight.Event{Type: flight.EvWALFsync, TS: ms(81), Node: -1, Arg: 3})

	// Instance 2's commit tripped dispute control on node-0: barrier
	// opens, instance 3's speculation is reaped and replayed.
	ev0(flight.Event{Type: flight.EvLaunch, TS: ms(82), Node: -1, Inst: 3, K: 3, Gen: 0})
	ev0(flight.Event{Type: flight.EvBarrierOpen, TS: ms(84), Node: -1, Inst: 2, K: 2, Gen: 1})
	ev0(flight.Event{Type: flight.EvAnomaly, TS: ms(84), Node: -1, Arg: flight.ReasonDispute})
	ev0(flight.Event{Type: flight.EvReplay, TS: ms(85), Node: -1, Inst: 3, K: 3, Gen: 0})
	ev0(flight.Event{Type: flight.EvBarrierClose, TS: ms(88), Node: -1, K: 3, Gen: 1})

	// node-1 was killed and rejoins: announce → sync → rewind → resume.
	ev1(flight.Event{Type: flight.EvAnomaly, TS: ms(90), Node: -1, Arg: flight.ReasonRejoin})
	ev1(flight.Event{Type: flight.EvRejoinRound, TS: ms(90), Node: -1, Step: flight.RoundAnnounce, Arg: 1, Inst: 2})
	ev1(flight.Event{Type: flight.EvRejoinRound, TS: ms(93), Node: -1, Step: flight.RoundSync, Arg: 1, Inst: 2})
	ev1(flight.Event{Type: flight.EvRejoinRound, TS: ms(97), Node: -1, Step: flight.RoundRewind, Arg: 1, Inst: 2})
	ev1(flight.Event{Type: flight.EvRejoinRound, TS: ms(104), Node: -1, Step: flight.RoundResume, Arg: 1, Inst: 2})

	// The replayed instance 3 relaunches under gen 1 and commits on both.
	for i, ev := range []func(flight.Event) flight.Event{ev0, ev1} {
		off := int64(i)
		ev(flight.Event{Type: flight.EvLaunch, TS: ms(106 + off), Node: -1, Inst: 4, K: 3, Gen: 1})
		ev(flight.Event{Type: flight.EvPhase, TS: ms(108 + off), Node: -1, K: 3, Step: flight.Phase1})
		ev(flight.Event{Type: flight.EvPhase, TS: ms(114 + off), Node: -1, K: 3, Step: flight.PhaseEquality})
		ev(flight.Event{Type: flight.EvPhase, TS: ms(118 + off), Node: -1, K: 3, Step: flight.PhaseFlags})
		ev(flight.Event{Type: flight.EvPhase, TS: ms(121 + off), Node: -1, K: 3, Step: flight.PhaseClaims})
		ev(flight.Event{Type: flight.EvCommit, TS: ms(127 + off), Node: -1, Inst: 4, K: 3, Gen: 1, Arg: 6144})
	}
	ev0(flight.Event{Type: flight.EvFrameSend, TS: ms(109), Node: 0, Peer: 1, Inst: 4, Step: 1, Arg: 96})
	ev1(flight.Event{Type: flight.EvFrameRecv, TS: ms(110), Node: 1, Peer: 0, Inst: 4, Step: 1, Arg: 96})
	// One frame node-0 sent that node-1's ring lost: stays an orphan.
	ev0(flight.Event{Type: flight.EvFrameSend, TS: ms(111), Node: 0, Peer: 1, Inst: 4, Step: 2, Arg: 0})

	node0.Meta = flight.Meta{Label: "node-0", Reason: "manual", WallNS: ms(130), Total: seq0, Capacity: 1024}
	node1.Meta = flight.Meta{Label: "node-1", Reason: "dispute-barrier", WallNS: ms(131), Total: seq1 + 5, Capacity: 1024}
	return node0, node1
}

func fixturePaths(t *testing.T) (d0, d1, goldenJSON, goldenTxt string) {
	t.Helper()
	return filepath.Join("testdata", "node-0.dump"),
		filepath.Join("testdata", "node-1.dump"),
		filepath.Join("testdata", "trace.golden.json"),
		filepath.Join("testdata", "report.golden.txt")
}

// TestGolden locks the tool's full output — Chrome trace JSON and text
// report — against checked-in fixtures built from a two-process dump
// pair. Regenerate with: go test ./tools/nabtrace -update
func TestGolden(t *testing.T) {
	d0, d1, goldenJSON, goldenTxt := fixturePaths(t)
	if *update {
		n0, n1 := genDumps()
		os.MkdirAll("testdata", 0o755)
		if err := os.WriteFile(d0, flight.Encode(n0), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d1, flight.Encode(n1), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tmp := t.TempDir()
	traceOut := filepath.Join(tmp, "trace.json")
	var report bytes.Buffer
	if err := run([]string{"-o", traceOut, d0, d1}, &report); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the "wrote N events" line (it names the temp path) before
	// comparing the report.
	gotTxt := report.String()
	if i := strings.Index(gotTxt, "\n"); i >= 0 && strings.HasPrefix(gotTxt, "nabtrace: wrote") {
		gotTxt = gotTxt[i+1:]
	}

	if *update {
		if err := os.WriteFile(goldenJSON, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTxt, []byte(gotTxt), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	wantJSON, err := os.ReadFile(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("trace JSON drifted from %s (regenerate with -update if intended)\ngot:  %.400s\nwant: %.400s",
			goldenJSON, gotJSON, wantJSON)
	}
	wantTxt, err := os.ReadFile(goldenTxt)
	if err != nil {
		t.Fatal(err)
	}
	if gotTxt != string(wantTxt) {
		t.Errorf("report drifted from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			goldenTxt, gotTxt, wantTxt)
	}
}

// TestTraceIsValidChromeJSON decodes the generated trace and asserts
// the structural claims the fixture encodes: both processes present,
// the dispute barrier and rejoin round appear as complete spans, and
// cross-process frames were stitched into flow pairs.
func TestTraceIsValidChromeJSON(t *testing.T) {
	d0, d1, _, _ := fixturePaths(t)
	tmp := t.TempDir()
	traceOut := filepath.Join(tmp, "trace.json")
	var report bytes.Buffer
	if err := run([]string{"-o", traceOut, d0, d1}, &report); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	var sawBarrier, sawRejoin, sawFlowStart, sawFlowEnd bool
	procs := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if ph == "M" && name == "process_name" {
			args := ev["args"].(map[string]any)
			procs[args["name"].(string)] = true
		}
		if ph == "X" && strings.HasPrefix(name, "dispute barrier") {
			sawBarrier = true
			if ev["dur"].(float64) <= 0 {
				t.Errorf("dispute barrier span has non-positive dur: %v", ev)
			}
		}
		if ph == "X" && strings.HasPrefix(name, "rejoin round") {
			sawRejoin = true
		}
		if ph == "s" {
			sawFlowStart = true
		}
		if ph == "f" {
			sawFlowEnd = true
		}
	}
	if !procs["node-0"] || !procs["node-1"] {
		t.Errorf("missing process metadata, got %v", procs)
	}
	if !sawBarrier {
		t.Error("no dispute barrier span in trace")
	}
	if !sawRejoin {
		t.Error("no rejoin round span in trace")
	}
	if !sawFlowStart || !sawFlowEnd {
		t.Errorf("frame flows not stitched: start=%v end=%v", sawFlowStart, sawFlowEnd)
	}
	if !strings.Contains(report.String(), "frame stitching") {
		t.Error("report missing frame stitching section")
	}
}

// TestRejectsForeignFile keeps the magic check honest.
func TestRejectsForeignFile(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "not-a-dump")
	if err := os.WriteFile(tmp, []byte("definitely not NABFLT01 content"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-o", "", tmp}, &buf); err == nil {
		t.Fatal("expected an error for a non-dump file")
	}
}
