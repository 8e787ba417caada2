package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nab"
	"nab/internal/flight"
)

// TestGenerateDeterministic pins the generator: the same fuzz seed must
// expand to the same scenario forever, or recorded seed numbers stop
// meaning anything.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("seed %d generated two different scenarios:\n%s\n%s", seed, ja, jb)
		}
		if err := a.Chaos.Validate(); err != nil {
			t.Errorf("seed %d generated invalid chaos config: %v", seed, err)
		}
		if a.Engine == "kill-recover" && (a.KillAfter < 1 || a.KillAfter >= a.Q) {
			t.Errorf("seed %d: kill point %d outside (0, %d)", seed, a.KillAfter, a.Q)
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Fatal("adjacent seeds generated identical scenarios")
	}
}

// TestScenarioFixtureRoundTrip checks a recorded scenario survives the
// JSON round trip intact — a failing seed must replay exactly.
func TestScenarioFixtureRoundTrip(t *testing.T) {
	sc := Generate(42)
	dir := t.TempDir()
	path, err := sc.record(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	back.Name = "" // record derives the name from the label; ignore it
	ja, _ := json.Marshal(sc)
	jb, _ := json.Marshal(back)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("fixture round trip mangled the scenario:\n%s\n%s", ja, jb)
	}
}

// TestChaosFuzzSmoke sweeps a small fixed seed budget end to end: every
// generated scenario must commit byte-identically to the lockstep oracle.
// CI runs a larger budget under -race (see the fuzz workflow).
func TestChaosFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine sweep skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-seeds", "4"}, &out, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}

// TestReplayCheckedInFixtures replays every committed regression fixture:
// scenarios that once flushed out a transport bug must stay green.
func TestReplayCheckedInFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine replays skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-fixtures", "fixtures"}, &out, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	t.Logf("\n%s", out.String())
}

// TestFailingReplayWritesFlightDump replays a scenario that fails after
// its lockstep oracle ran (a churn kill point past the stream's end) and
// checks the run leaves a flight dump, beside the recorded fixture, that
// decodes the way tools/nabtrace loads it and holds the oracle's phases.
func TestFailingReplayWritesFlightDump(t *testing.T) {
	dir := t.TempDir()
	sc := &Scenario{Name: "forced", Topology: "k4", Source: 1, F: 1, LenBytes: 8,
		Seed: 3, Window: 2, Q: 4, Chaos: &nab.ChaosConfig{Seed: 1},
		Engine: "churn-join", KillAfter: 4, SnapEvery: 2}
	fixture, err := sc.record(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-replay", fixture, "-record", dir}, &out, &out); err == nil {
		t.Fatalf("the forced failure passed:\n%s", out.String())
	}
	path := filepath.Join(dir, "chaosfuzz-forced.dump")
	if !strings.Contains(out.String(), "flight dump "+path) {
		t.Fatalf("output does not name the dump %s:\n%s", path, out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	phases := 0
	for _, ev := range d.Events {
		if ev.Type == flight.EvPhase {
			phases++
		}
	}
	if d.Meta.Label != "chaosfuzz" || d.Meta.Reason != "diverged" || phases == 0 {
		t.Fatalf("dump %q/%q holds %d events, %d phases; want the oracle's phases", d.Meta.Label, d.Meta.Reason, len(d.Events), phases)
	}
	if flight.Enabled() {
		t.Fatal("the recorder stayed armed after the run")
	}
}

// TestCoordinatorRestartRecordsReconnect replays the rolling-restart
// fixture, whose first restart is the coordinator's, with the flight
// recorder armed: the followers that redial it record RoundReconnect.
func TestCoordinatorRestartRecordsReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine replays skipped in -short mode")
	}
	sc, err := loadScenario("fixtures/rolling-restart.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.Default()
	rec.Enable(traceEvents)
	defer rec.Disable()
	if err := Run(sc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range rec.Events() {
		if ev.Type == flight.EvRejoinRound && ev.Step == flight.RoundReconnect {
			return
		}
	}
	t.Fatal("no follower recorded a reconnect round across the coordinator's restart")
}
