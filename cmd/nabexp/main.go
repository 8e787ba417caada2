// Command nabexp is the front door to the paper's artefacts. Bare, it
// regenerates every experiment table recorded in EXPERIMENTS.md: the
// paper's worked examples (E1, E2), the Theorem 1 soundness sweep (E3),
// throughput vs capacity bounds (E4), pipelining (E5), dispute-control
// amortization (E6), the capacity-oblivious baseline comparison (E7), the
// correctness fuzz sweep (E8), and the design ablations. Two subcommands
// cover one topology at a time: sim runs NAB instances and prints
// per-phase timing, dispute-control activity and throughput; cap prints
// the capacity analysis (gamma_1, U_1, gamma*, rho*, the Theorem 2
// capacity upper bound and the Theorem 3 NAB throughput guarantee).
//
// Usage:
//
//	nabexp                     # every table
//	nabexp -only e4            # one experiment
//	nabexp sim -topo k7 -f 2 -q 8 -len 256 -adversary 3=flip -adversary 5=alarm
//	nabexp cap -topo k7 -f 2 -exact=false
//	nabexp cap -file net.txt   # "from to capacity" per line
//
// sim's adversary strategies are the cluster.json ones: crash, flip,
// coded, alarm, suppress, random[:<seed>].
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"nab/internal/capacity"
	"nab/internal/cluster"
	"nab/internal/core"
	"nab/internal/exp"
	"nab/internal/graph"
	"nab/internal/texttab"
	"nab/internal/topo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nabexp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "sim":
			return runSim(args[1:])
		case "cap":
			return runCap(args[1:])
		}
	}
	return runTables(args)
}

func runTables(args []string) error {
	fs := flag.NewFlagSet("nabexp", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment: e1..e8, ablations")
	seed := fs.Int64("seed", 2012, "base seed")
	draws := fs.Int("draws", 200, "E3 scheme draws per symbol width")
	q := fs.Int("q", 10, "E4 instances per network")
	trials := fs.Int("trials", 20, "E8 fuzz trials")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := os.Stdout
	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"e1", func() error { return exp.E1Fig1(w) }},
		{"e2", func() error { return exp.E2Fig2(w) }},
		{"e3", func() error { return exp.E3Theorem1(w, *draws, *seed) }},
		{"e4", func() error { _, err := exp.E4ThroughputVsCapacity(w, 0, *q, *seed); return err }},
		{"e5", func() error { _, err := exp.E5Pipelining(w, 0, *seed); return err }},
		{"e6", func() error { _, err := exp.E6Amortization(w, 0, nil, *seed); return err }},
		{"e7", func() error { _, err := exp.E7Baselines(w, 0, *seed); return err }},
		{"e8", func() error { return exp.E8Correctness(w, *trials, 8, *seed) }},
		{"ablations", func() error {
			if err := exp.AblationRho(w, 0, *seed); err != nil {
				return err
			}
			if err := exp.AblationPacking(w, 64, *seed); err != nil {
				return err
			}
			return exp.AblationRelayPaths(w, 16, *seed)
		}},
	}
	ran := false
	for _, s := range steps {
		if !want(s.name) {
			continue
		}
		ran = true
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	return nil
}

// topoFlags registers the -topo/-file/-source/-f flags sim and cap share.
func topoFlags(fs *flag.FlagSet) (topoName, file *string, source, f *int) {
	topoName = fs.String("topo", "k4", "built-in topology: "+strings.Join(topo.Names(), ", "))
	file = fs.String("file", "", "topology file (overrides -topo)")
	source = fs.Int("source", 1, "source node id")
	f = fs.Int("f", 1, "fault bound")
	return
}

// runSim runs -q NAB instances on the lockstep runner and prints one row
// per instance.
func runSim(args []string) error {
	fs := flag.NewFlagSet("nabexp sim", flag.ContinueOnError)
	topoName, file, source, f := topoFlags(fs)
	q := fs.Int("q", 4, "number of instances")
	lenBytes := fs.Int("len", 64, "input length in bytes")
	seed := fs.Int64("seed", 1, "seed for coding matrices and inputs")
	specs := cluster.AdversarySpecs{}
	fs.Var(specs, "adversary", "node=strategy (repeatable): crash, flip, coded, alarm, suppress, random[:<seed>]")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := topo.Load(*file, *topoName)
	if err != nil {
		return err
	}
	advs, err := specs.Build()
	if err != nil {
		return err
	}
	runner, err := core.NewRunner(core.Config{
		Graph: g, Source: graph.NodeID(*source), F: *f,
		LenBytes: *lenBytes, Seed: *seed, Adversaries: advs,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	t := texttab.New(fmt.Sprintf("NAB run: %d instances of %d bytes (f=%d)", *q, *lenBytes, *f),
		"k", "gamma", "rho", "phase1", "equality", "flags", "dispute", "total", "phase3", "new disputes", "new faulty")
	rr := core.RunResult{LenBits: 8 * *lenBytes}
	for i := 0; i < *q; i++ {
		in := make([]byte, *lenBytes)
		rng.Read(in)
		ir, err := runner.RunInstance(in)
		if err != nil {
			return err
		}
		rr.Add(ir, false)
		t.Addf(ir.K, ir.Gamma, ir.Rho, ir.Phase1Time, ir.EqualityTime, ir.FlagTime,
			ir.DisputeTime, ir.TotalTime(), ir.Phase3, fmt.Sprint(ir.NewDisputes), fmt.Sprint(ir.NewFaulty))
	}
	fmt.Print(t)
	fmt.Printf("\nthroughput: %s bits/time unit over %d instances (%d dispute phases)\n",
		texttab.F(rr.Throughput()), *q, rr.DisputePhases())
	return nil
}

// runCap prints the topology's Theorem 2/3 capacity quantities.
func runCap(args []string) error {
	fs := flag.NewFlagSet("nabexp cap", flag.ContinueOnError)
	topoName, file, source, f := topoFlags(fs)
	exact := fs.Bool("exact", true, "exact gamma* enumeration (small networks)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := topo.Load(*file, *topoName)
	if err != nil {
		return err
	}
	rep, err := capacity.Analyze(g, graph.NodeID(*source), *f, *exact)
	if err != nil {
		return err
	}
	t := texttab.New(fmt.Sprintf("Capacity analysis (n=%d, f=%d, source=%d)", rep.N, rep.F, rep.Source),
		"quantity", "value")
	t.Addf("gamma_1 (broadcast mincut of G)", rep.Gamma1)
	t.Addf("U_1 (min pairwise mincut over Omega_1)", rep.U1)
	t.Addf("rho* = U_1/2", rep.RhoStar)
	t.Addf("gamma* (min over reachable instance graphs)", rep.GammaStar)
	t.Addf("gamma* enumeration exact", rep.GammaExact)
	t.Addf("capacity upper bound min(gamma*, 2 rho*)", rep.CapacityUB)
	t.Addf("T_NAB lower bound gamma* rho*/(gamma*+rho*)", rep.TNABBound)
	t.Addf("guaranteed fraction of capacity", rep.Guarantee)
	fmt.Print(t)
	return nil
}
