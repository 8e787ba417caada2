package runtime

import (
	"fmt"
	"strings"

	"nab/internal/capacity"
	"nab/internal/graph"
)

// Report is the runtime's aggregate throughput accounting, stated in the
// same model units as capacity.Report so measured rates sit directly next
// to the paper's bounds (Theorems 2 and 3).
type Report struct {
	Instances int
	LenBits   int

	// Wall-clock accounting.
	WallSeconds     float64
	InstancesPerSec float64
	Replays         int

	// Model-time accounting (time units: 1 bit across a capacity-1 link).
	// SequentialTime is the sum of per-instance critical paths — what the
	// lockstep engine would charge executing the committed instances back
	// to back. LinkTime is the busiest link's total charge across the
	// whole run: the cut-through floor for the pipelined execution, since
	// overlapped instances share links.
	SequentialTime float64
	LinkTime       float64
	// PipelineSpeedup is SequentialTime/LinkTime: how much model time the
	// overlap removes (>= 1; the Appendix D construction's gain).
	PipelineSpeedup float64

	// Throughputs in bits per time unit, against the paper's bounds.
	SequentialThroughput float64
	PipelinedThroughput  float64
	CapacityUpperBound   float64 // Theorem 2 (0 when no capacity report given)
	GuaranteeLowerBound  float64 // Theorem 3
}

// Report derives the aggregate accounting for a finished run. cap may be
// nil; pass capacity.Analyze's output to include the Theorem 2/3 bounds.
func (rt *Runtime) Report(res *Result, cap *capacity.Report) *Report {
	return NewReport(rt.proto.Graph(), res, cap)
}

// NewReport derives the aggregate accounting for a finished run over
// topology g — the engine-independent form for callers holding only a
// Session's PipelineResult. cap may be nil; pass capacity.Analyze's
// output to include the Theorem 2/3 bounds.
func NewReport(g *graph.Directed, res *Result, cap *capacity.Report) *Report {
	rep := &Report{
		Instances:       res.Committed(),
		LenBits:         res.LenBits,
		WallSeconds:     res.Wall.Seconds(),
		InstancesPerSec: res.InstancesPerSec(),
		Replays:         res.Replays,
		SequentialTime:  res.TotalTime(),
	}
	for key, bits := range res.LinkBits {
		if c := g.Cap(key[0], key[1]); c > 0 {
			if t := float64(bits) / float64(c); t > rep.LinkTime {
				rep.LinkTime = t
			}
		}
	}
	totalBits := float64(rep.Instances * res.LenBits)
	if rep.SequentialTime > 0 {
		rep.SequentialThroughput = totalBits / rep.SequentialTime
	}
	if rep.LinkTime > 0 {
		rep.PipelinedThroughput = totalBits / rep.LinkTime
		rep.PipelineSpeedup = rep.SequentialTime / rep.LinkTime
	}
	if cap != nil {
		rep.CapacityUpperBound = cap.CapacityUB
		rep.GuaranteeLowerBound = cap.TNABBound
	}
	return rep
}

// String renders the report as an aligned table.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instances            %d x %d bits\n", rep.Instances, rep.LenBits)
	fmt.Fprintf(&b, "wall                 %.3fs (%.1f instances/s, %d replays)\n", rep.WallSeconds, rep.InstancesPerSec, rep.Replays)
	fmt.Fprintf(&b, "model time           sequential %.1f, busiest-link %.1f (overlap x%.2f)\n", rep.SequentialTime, rep.LinkTime, rep.PipelineSpeedup)
	fmt.Fprintf(&b, "throughput           sequential %.3f, pipelined %.3f bits/tu\n", rep.SequentialThroughput, rep.PipelinedThroughput)
	if rep.CapacityUpperBound > 0 {
		fmt.Fprintf(&b, "paper bounds         UB %.3f (Thm 2), guarantee %.3f (Thm 3)\n", rep.CapacityUpperBound, rep.GuaranteeLowerBound)
	}
	return b.String()
}
