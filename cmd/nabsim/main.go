// Command nabsim runs NAB instances on a topology and prints per-phase
// timing, dispute-control activity and throughput.
//
// Usage:
//
//	nabsim -topo k7 -f 2 -q 8 -len 256 -adversary 3=flip -adversary 5=alarm
//
// Adversary strategies: flip (Phase-1 corruption), coded (equality-check
// corruption), alarm (always announce MISMATCH), crash (silent), random.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/texttab"
	"nab/internal/topo"
)

type adversaryFlags map[graph.NodeID]core.Adversary

func (af adversaryFlags) String() string { return fmt.Sprint(map[graph.NodeID]core.Adversary(af)) }

func (af adversaryFlags) Set(s string) error {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want node=strategy, got %q", s)
	}
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad node id %q: %w", parts[0], err)
	}
	var a core.Adversary
	switch parts[1] {
	case "flip":
		a = &adversary.BlockFlipper{}
	case "coded":
		a = &adversary.CodedCorruptor{}
	case "alarm":
		a = adversary.FalseAlarm{}
	case "crash":
		a = adversary.Crash{}
	case "random":
		// The instance-scoped (seeded) form: reproducible regardless of
		// execution engine, unlike the deprecated shared-stream adversary.
		a = &adversary.Random{Seed: int64(id)}
	default:
		return fmt.Errorf("unknown strategy %q", parts[1])
	}
	af[graph.NodeID(id)] = a
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nabsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nabsim", flag.ContinueOnError)
	topoName := fs.String("topo", "k4", "built-in topology: k4, k5, k7, thin5, circ8")
	file := fs.String("file", "", "topology file (overrides -topo)")
	source := fs.Int("source", 1, "source node id")
	f := fs.Int("f", 1, "fault bound")
	q := fs.Int("q", 4, "number of instances")
	lenBytes := fs.Int("len", 64, "input length in bytes")
	seed := fs.Int64("seed", 1, "seed for coding matrices and inputs")
	advs := adversaryFlags{}
	fs.Var(advs, "adversary", "node=strategy (repeatable): flip, coded, alarm, crash, random")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := loadGraph(*file, *topoName)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Graph: g, Source: graph.NodeID(*source), F: *f,
		LenBytes: *lenBytes, Seed: *seed, Adversaries: advs,
	}
	runner, err := core.NewRunner(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	t := texttab.New(fmt.Sprintf("NAB run: %d instances of %d bytes (f=%d)", *q, *lenBytes, *f),
		"k", "gamma", "rho", "phase1", "equality", "flags", "dispute", "total", "phase3", "new disputes", "new faulty")
	var rr core.RunResult
	rr.LenBits = 8 * *lenBytes
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

func loadGraph(file, name string) (*graph.Directed, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return graph.ParseDirected(string(data))
	}
	switch name {
	case "k4":
		return topo.CompleteBi(4, 1), nil
	case "k5":
		return topo.CompleteBi(5, 2), nil
	case "k7":
		return topo.CompleteBi(7, 2), nil
	case "thin5":
		return topo.OneThinLink(5, 4, 5, 8, 1)
	case "circ8":
		return topo.Circulant(8, 1, 1, 2)
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}
