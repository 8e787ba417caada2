package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs the whole suite with 1 s windows in-process and checks
// schema and correctness only: every declared workload and metric is
// reported under a well-formed name, nothing failed, and every workload
// left a loadable trace file. It asserts no timing.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.HasSuffix(strings.TrimSpace(stdout.String()), `"claim": null`) {
		t.Errorf("summary does not end with \"claim\": null")
	}
	res, err := readResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil {
		t.Errorf("result claims %q; this benchmark claims nothing", *res.Claim)
	}
	got := map[string]*workloadResult{}
	for i := range res.Workloads {
		got[res.Workloads[i].Name] = &res.Workloads[i]
	}
	for _, w := range workloads {
		wr := got[w.Name]
		if wr == nil {
			t.Errorf("workload %s missing from result.json", w.Name)
			continue
		}
		if wr.Failed != 0 || wr.Attempted < 1 || wr.Commits < 1 {
			t.Errorf("%s: attempted %d, failed %d, commits %d: %v", w.Name, wr.Attempted, wr.Failed, wr.Commits, wr.Failures)
		}
		if s, ok := wr.EndToEnd[failedOpsRatio]; !ok || s.Value != 0 {
			t.Errorf("%s: %s = %v, want 0", w.Name, failedOpsRatio, s.Value)
		}
		for _, d := range endToEnd {
			s, ok := wr.EndToEnd[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: end-to-end metric %s missing", w.Name, d.Name)
			case s.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, s.Unit, d.Unit)
			case s.Value <= 0:
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", w.Name, d.Name, s.Value)
			}
		}
		for _, d := range perLayer {
			if s, ok := wr.PerLayer[d.Name]; !ok || s.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or unit %q != %q", w.Name, d.Name, s.Unit, d.Unit)
			}
		}
		for name := range wr.EndToEnd {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q is malformed", w.Name, name)
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) < 2 {
			t.Errorf("%s: trace file does not hold trace events: %v", w.Name, err)
		}
	}
	// The layer separation the workloads were built for, as counts (not
	// timings): only the durable workload syncs a log, only the churn
	// replays inside its window.
	for name, wr := range got {
		if fsyncs := wr.PerLayer["wal.fsyncs_per_commit"].Value; (fsyncs > 0) != (name == "serve_durable") {
			t.Errorf("%s: wal.fsyncs_per_commit = %v", name, fsyncs)
		}
		if replays := wr.PerLayer["runtime.replays_per_commit"].Value; (replays > 0) != (name == "dispute_churn") {
			t.Errorf("%s: runtime.replays_per_commit = %v", name, replays)
		}
	}
}

// TestSelftestCorrupt proves the byte check can fail: with one expected
// byte flipped the run must report a failure and exit non-zero.
func TestSelftestCorrupt(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-workloads", "small_chan,dispute_churn", "-traced=false", "-selftest-corrupt", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d with a corrupted expectation, want 1\n%s", code, &stdout)
	}
	if n := strings.Count(stdout.String(), "FAILED: commit seq"); n != 2 {
		t.Errorf("%d byte-check failures reported, want one per workload\n%s", n, &stdout)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json and the harness agree on
// names, units, directions, bounds, workloads and window length, and that
// the file stays inside the limits its readers enforce.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if strings.Join(bm.Command, " ") != "bash bench/run.sh" || len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", bm.Command, bm.Paths)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := bm.Workloads[i]
		if d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	check := func(kind string, declared []metric, want []metricDecl, bounded bool) {
		if len(declared) != len(want) {
			t.Errorf("%s: %d metrics declared, harness has %d", kind, len(declared), len(want))
			return
		}
		seen := map[string]bool{}
		for i, w := range want {
			d := declared[i]
			if d.Name != w.Name || d.Unit != w.Unit || d.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness %s/%s/%s", kind, i, d, w.Name, w.Unit, w.Better)
			}
			if !nameRE.MatchString(w.Name) || !unitRE.MatchString(w.Unit) || (w.Better != "lower" && w.Better != "higher") || seen[w.Name] {
				t.Errorf("%s %q: malformed or repeated declaration", kind, w.Name)
			}
			seen[w.Name] = true
			switch {
			case bounded && (d.Bound == nil || *d.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s %q: bound %v, harness %v (must be in (0, 0.25])", kind, w.Name, d.Bound, w.Bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, w.Name)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the set-up metric is declared as %+v", s)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		if q1, q3 := quartiles(tc.in); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}
