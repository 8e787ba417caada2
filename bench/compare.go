package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles reads two result.json files (a = parent or first set, b =
// change or second set) and judges every (workload, end-to-end metric)
// pair against the metric's bound:
//
//	ok          b is no worse than a by more than the bound
//	regressed   b is worse than a by more than the bound
//	unresolved  b looks worse, but either file's own quartile spread is
//	            wider than the bound, so the runs cannot tell
//
// Per-layer metrics carry no bound and are listed with their difference
// only. Exit status: 1 if anything regressed, else 2 if anything is
// unresolved, else 0.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *suiteResult
		if b, err = readResult(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func readResult(path string) (*suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &suiteResult{}
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// worsening is how much worse b is than a, as a share of a (negative when
// b is better).
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		return -rel
	}
	return rel
}

// spread is a stat's interquartile range as a share of its median.
func spread(s stat) float64 {
	if len(s.Samples) < 2 || s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

func compareResults(a, b *suiteResult, out io.Writer) int {
	byName := map[string]*workloadResult{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(out, "%-18s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse := worsening(d, sa.Value, sb.Value)
			verdict := "ok"
			if worse > d.Bound {
				verdict = "regressed"
				if spread(sa) > d.Bound || spread(sb) > d.Bound {
					verdict = "unresolved"
					unresolved++
				} else {
					regressed++
				}
			}
			fmt.Fprintf(out, "%-18s %-34s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wa.Name, d.Name, sa.Value, sb.Value, 100*worse, 100*d.Bound, verdict)
		}
		// Any failed operation in b that a did not have is a regression,
		// whatever its share.
		if fa, fb := wa.EndToEnd[failedOpsRatio].Value, wb.EndToEnd[failedOpsRatio].Value; fb > fa {
			regressed++
			fmt.Fprintf(out, "%-18s %-34s %14.6g %14.6g %9s %7s  regressed\n", wa.Name, failedOpsRatio, fa, fb, "", "any")
		}
		for _, d := range perLayer {
			sa, oka := wa.PerLayer[d.Name]
			sb, okb := wb.PerLayer[d.Name]
			if oka && okb {
				fmt.Fprintf(out, "%-18s %-34s %14.6g %14.6g %+8.1f%% %7s  -\n",
					wa.Name, d.Name, sa.Value, sb.Value, 100*worsening(d, sa.Value, sb.Value), "")
			}
		}
	}
	fmt.Fprintf(out, "%d regressed, %d unresolved\n", regressed, unresolved)
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 2
	}
	return 0
}
