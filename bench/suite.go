package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// stat is one metric of one workload over the sets of a suite: the median
// (the only value with one set) and the quartiles the acceptance check
// uses for spread.
type stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func newStat(unit string, samples []float64) stat {
	q1, q3 := quartiles(samples)
	return stat{Value: median(samples), Unit: unit, Q1: q1, Q3: q3, Samples: samples}
}

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	Medium string `json:"medium"`
	// Window lengths, commit counts and the tail percentile's support, of
	// the last set.
	WindowSeconds       float64 `json:"window_seconds"`
	TracedWindowSeconds float64 `json:"traced_window_seconds,omitempty"`
	Commits             int     `json:"commits"`
	TailPercentile      float64 `json:"tail_percentile"`
	TailBeyond          int     `json:"tail_samples_beyond"`
	// Attempted and Failed are summed over every run of every set.
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	// SelfTimeMs is each span name's total self time in the last traced
	// window: its duration minus what its child spans cover.
	SelfTimeMs map[string]float64 `json:"self_time_ms,omitempty"`
}

// suiteResult is result.json.
type suiteResult struct {
	Benchmark string           `json:"benchmark"`
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"`
	Sets      int              `json:"sets"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: this benchmark defines names, it claims no gain.
	Claim *string `json:"claim"`
}

func (s *suiteResult) failed() bool {
	for _, w := range s.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

func (s *suiteResult) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(raw, '\n'), 0o644)
}

// runSuite runs every selected workload opt.runs times (set i uses seed
// opt.seed+i), prints every metric by name with its unit, and writes one
// trace file per workload from the last set.
func runSuite(opt *options, scratch string, stdout io.Writer) (*suiteResult, error) {
	res := &suiteResult{Benchmark: "nab-bench", Env: currentEnv(), Seed: opt.seed, Sets: opt.runs, Smoke: opt.smoke}
	fmt.Fprintf(stdout, "nab bench: seed %d, %d set(s), %.3g s windows, closed loop W=%d, GOMAXPROCS %d of %d CPUs, %s\n",
		opt.seed, opt.runs, opt.seconds, loopWindow, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.GoVersion)
	for _, w := range opt.workloads {
		wr := workloadResult{Name: w.Name, Why: w.Why, Medium: w.Medium, TailPercentile: w.Tail}
		e2e, layers := map[string][]float64{}, map[string][]float64{}
		for set := 0; set < opt.runs; set++ {
			env := &runEnv{seed: opt.seed + int64(set), scratch: scratch}
			untraced, traced, err := measure(w, env, opt, opt.traced)
			if err != nil {
				return nil, err
			}
			for name, v := range untraced.Metrics {
				e2e[name] = append(e2e[name], v)
			}
			wr.WindowSeconds, wr.Commits, wr.TailBeyond = untraced.WindowSeconds, untraced.Commits, untraced.TailBeyond
			for _, r := range []*runResult{untraced, traced} {
				if r != nil {
					wr.Attempted += r.Attempted
					wr.Failed += r.Failed
					wr.Failures = append(wr.Failures, r.Failures...)
				}
			}
			if traced == nil {
				continue
			}
			for name, v := range traced.Metrics {
				layers[name] = append(layers[name], v)
			}
			wr.TracedWindowSeconds = traced.WindowSeconds
			if set == opt.runs-1 {
				wr.SelfTimeMs = map[string]float64{}
				for name, ns := range selfTimes(traced.traceData.spans) {
					wr.SelfTimeMs[name] = float64(ns) / 1e6
				}
				if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
					return nil, err
				}
				path := filepath.Join(opt.outDir, "trace-"+w.Name+".json")
				if err := writeChromeTrace(path, w.Name, traced.traceData.spans); err != nil {
					return nil, err
				}
			}
		}
		wr.EndToEnd = map[string]stat{}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = newStat(d.Unit, e2e[d.Name])
		}
		wr.EndToEnd[failedOpsRatio] = newStat("ratio", e2e[failedOpsRatio])
		if opt.traced {
			wr.PerLayer = map[string]stat{}
			for _, d := range perLayer {
				wr.PerLayer[d.Name] = newStat(d.Unit, layers[d.Name])
			}
		}
		printWorkload(stdout, &wr, opt.runs)
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

func printWorkload(out io.Writer, wr *workloadResult, sets int) {
	fmt.Fprintf(out, "\n== %s: %s\n", wr.Name, wr.Why)
	fmt.Fprintf(out, "   medium: %s\n", wr.Medium)
	fmt.Fprintf(out, "   end to end, untraced: window %.2f s, %d verified commits (= latency samples), tail = p%g with %d samples beyond it\n",
		wr.WindowSeconds, wr.Commits, 100*wr.TailPercentile, wr.TailBeyond)
	row := func(name string, s stat) {
		if sets > 1 {
			fmt.Fprintf(out, "   %-38s %14.6g %-7s [q1 %.6g, q3 %.6g]\n", name, s.Value, s.Unit, s.Q1, s.Q3)
			return
		}
		fmt.Fprintf(out, "   %-38s %14.6g %s\n", name, s.Value, s.Unit)
	}
	for _, d := range endToEnd {
		row(d.Name, wr.EndToEnd[d.Name])
	}
	row(failedOpsRatio, wr.EndToEnd[failedOpsRatio])
	for _, msg := range wr.Failures {
		fmt.Fprintf(out, "   FAILED: %s\n", msg)
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(out, "   per layer, traced: window %.2f s\n", wr.TracedWindowSeconds)
	for _, d := range perLayer {
		row(d.Name, wr.PerLayer[d.Name])
	}
}
