// Command bench measures NAB end to end and layer by layer on six named
// workloads. See README.md; BENCHMARK.json at the root of the repository
// declares the metrics, workloads and bounds this program reports.
//
//	bash bench/run.sh                       # every workload, untraced then traced
//	bash bench/run.sh -workloads bulk_chan -runs 5
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload small_chan --seed 3 --seconds 12 --trace 0
//
// The last form is the one-run-per-process protocol of BENCHMARK.json: the
// final line of standard output is one JSON object with the run's metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options is the parsed command line.
type options struct {
	seed      int64
	seconds   float64
	workloads []*workload
	runs      int
	traced    bool
	smoke     bool
	corrupt   bool
	outDir    string
	// single is the one-run protocol: --workload NAME --trace 0|1.
	single      *workload
	singleTrace bool
	compare     bool
	compareArgs []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if opt.compare {
		return compareFiles(opt.compareArgs[0], opt.compareArgs[1], stdout, stderr)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	scratch := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if opt.single != nil {
		return runSingle(opt, scratch, stdout, stderr)
	}
	if opt.outDir == "" {
		opt.outDir = filepath.Join(root, "bench", "out")
	}
	res, err := runSuite(opt, scratch, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := res.write(opt.outDir); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n\"claim\": null\n", filepath.Join(opt.outDir, "result.json"))
	if res.failed() {
		fmt.Fprintln(stderr, "bench: correctness failures, see above")
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of every generated input: payloads, Config.Seed, adversaries")
	seconds := fs.Float64("seconds", float64(defaultSeconds), "length of each measurement window in seconds (under --workload --trace 1: of the untraced reference and the traced window together)")
	names := fs.String("workloads", "", "comma-separated workloads to run (default: all)")
	runs := fs.Int("runs", 1, "sets of runs; with more than one, every metric is reported as median and quartiles over the sets")
	traced := fs.Bool("traced", true, "also make the traced run that yields the per-layer metrics")
	smoke := fs.Bool("smoke", false, "1 s windows and short warm-up: checks schema and correctness, not speed")
	corrupt := fs.Bool("selftest-corrupt", false, "flip one expected byte; the run must then fail (proves the byte check can)")
	outDir := fs.String("out", "", "directory for result.json and trace-<workload>.json (default bench/out; nothing is written in --workload mode unless set)")
	single := fs.String("workload", "", "run one workload once and print one JSON result line (the BENCHMARK.json protocol)")
	trace := fs.Int("trace", 0, "with --workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	opt := &options{
		seed: *seed, seconds: *seconds, runs: *runs, traced: *traced, smoke: *smoke,
		corrupt: *corrupt, outDir: *outDir, compare: *compare, compareArgs: fs.Args(),
		singleTrace: *trace == 1,
	}
	if opt.compare {
		if len(opt.compareArgs) != 2 {
			return nil, fmt.Errorf("-compare needs two result files")
		}
		return opt, nil
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if opt.smoke {
		opt.seconds = 1
	}
	if opt.seconds <= 0 || opt.runs < 1 {
		return nil, fmt.Errorf("-seconds and -runs must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if *single != "" {
		if opt.single = workloadByName(*single); opt.single == nil {
			return nil, fmt.Errorf("no workload %q", *single)
		}
		return opt, nil
	}
	opt.workloads = workloads
	if *names != "" {
		opt.workloads = nil
		for _, name := range strings.Split(*names, ",") {
			w := workloadByName(strings.TrimSpace(name))
			if w == nil {
				return nil, fmt.Errorf("no workload %q", name)
			}
			opt.workloads = append(opt.workloads, w)
		}
	}
	return opt, nil
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// repoRoot finds the checkout's root: the directory holding
// BENCHMARK.json, which is the working directory under run.sh and its
// parent under `go run` or `go test` inside bench/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

// runOptions are the settings of one run. A traced run and the untraced run
// its overhead ratio is taken against always measure equal windows (a
// session speeds up as it ages, so a shorter window reads slower): the full
// -seconds each in a suite, half of it each under --workload --trace 1.
func (o *options) runOptions(traced bool) runOptions {
	ro := runOptions{seconds: o.seconds, setupCycles: 51, corrupt: o.corrupt, traced: traced,
		warmCommits: 64, warmMin: 2 * loopWindow, warmMax: 1500 * time.Millisecond, kernelBudget: 150 * time.Millisecond}
	if o.smoke {
		ro.setupCycles, ro.warmCommits, ro.warmMin, ro.kernelBudget = 3, 2*loopWindow, loopWindow, 0
		ro.warmMax = 100 * time.Millisecond
	}
	if o.single != nil && o.singleTrace {
		ro.seconds, ro.setupCycles = o.seconds/2, 0
	}
	if traced {
		ro.setupCycles = 0
	}
	return ro
}

// runTimeout bounds one run: its window, warm-up, set-up cycles, drain and
// kernels. A wedged session ends as a failed run, not a hung benchmark.
func runTimeout(seconds float64) time.Duration {
	return time.Duration(seconds*float64(time.Second)) + 60*time.Second
}

// measure makes one untraced and (optionally) one traced run of w.
func measure(w *workload, env *runEnv, opt *options, wantTraced bool) (untraced, traced *runResult, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*runTimeout(opt.seconds))
	defer cancel()
	if untraced, err = runOnce(ctx, w, env, opt.runOptions(false)); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !wantTraced {
		return untraced, nil, nil
	}
	ro := opt.runOptions(true)
	if traced, err = runOnce(ctx, w, env, ro); err != nil {
		return nil, nil, fmt.Errorf("%s (traced): %w", w.Name, err)
	}
	if traced.traceData.kernels, err = measureKernels(w, env, ro.kernelBudget); err != nil {
		return nil, nil, fmt.Errorf("%s (kernels): %w", w.Name, err)
	}
	layers, err := perLayerMetrics(w, traced, untraced.Metrics["commits_per_s"])
	if err != nil {
		return nil, nil, fmt.Errorf("%s (traced): %w", w.Name, err)
	}
	traced.Metrics = layers
	td := traced.traceData
	base := len(td.spans)
	for _, s := range td.kernels.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		td.spans = append(td.spans, s)
	}
	return untraced, traced, nil
}

// runSingle is the BENCHMARK.json protocol: one workload, one run, one
// JSON object on the last line of standard output.
func runSingle(opt *options, scratch string, stdout, stderr io.Writer) int {
	w := opt.single
	env := &runEnv{seed: opt.seed, scratch: scratch}
	untraced, traced, err := measure(w, env, opt, opt.singleTrace)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, decls := untraced, endToEnd
	if opt.singleTrace {
		res, decls = traced, perLayer
		res.Attempted += untraced.Attempted
		res.Failed += untraced.Failed
		res.Failures = append(res.Failures, untraced.Failures...)
		if opt.outDir != "" {
			if err := os.MkdirAll(opt.outDir, 0o755); err == nil {
				err = writeChromeTrace(filepath.Join(opt.outDir, "trace-"+w.Name+".json"), w.Name, traced.traceData.spans)
			}
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	for _, msg := range res.Failures {
		fmt.Fprintln(stderr, "bench: FAILED:", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range decls {
		line.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	fmt.Fprintf(stderr, "%s seed %d: window %.2f s, %d commits, tail p%g with %d samples beyond, commits/s per slice %.4g, latency ms p75/p90/p95/p99 %.4g\n",
		w.Name, opt.seed, res.WindowSeconds, res.Commits, 100*res.TailPercentile, res.TailBeyond, res.meter.sliceRates(), res.meter.latencyTails())
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// envInfo records where the numbers came from.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	// Network states what the frames crossed, so no number here is read
	// as a statement about a real link.
	Network string `json:"network"`
}

func currentEnv() envInfo {
	env := envInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: "unknown", Kernel: "unknown",
		Network: "all traffic crossed in-process channels or loopback TCP inside one OS process; no real link was involved",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}
