// Package baseline implements capacity-oblivious Byzantine broadcast
// algorithms from the prior literature the paper compares against
// conceptually: they solve BB correctly but ignore link capacities, so
// their throughput collapses on heterogeneous networks ("one can easily
// construct example networks in which previously proposed algorithms
// achieve throughput that is arbitrarily worse than the optimal" — §1).
//
// Two comparators are provided, with the same deterministic capacity-model
// time accounting as NAB:
//
//   - EIG: the source broadcasts its full L-bit input with classic
//     Exponential Information Gathering over the 2f+1-disjoint-path
//     complete-graph emulation. Fully Byzantine-tolerant, every bit is
//     replicated across paths and EIG rounds.
//
//   - Flood: the source sends the input along 2f+1 node-disjoint paths to
//     every node, which takes a majority. Tolerates faulty relays (not a
//     faulty source); it is the natural "cheap" comparator for the
//     fault-free-throughput ceiling.
//
// Throughputs are measured on fault-free executions: the baselines' costs
// are structural (replication), not adversarial.
package baseline

import (
	"fmt"

	"nab/internal/bb"
	"nab/internal/graph"
	"nab/internal/relay"
	"nab/internal/sim"
)

// Result reports one baseline broadcast.
type Result struct {
	Outputs   map[graph.NodeID][]byte
	Time      float64 // cut-through time units
	TotalBits int64
}

// Throughput returns bits per time unit for an input of lenBits.
func (r *Result) Throughput(lenBits int) float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(lenBits) / r.Time
}

// RunEIG broadcasts input from source to all nodes of g using EIG over the
// relay emulation, tolerating f faults structurally (the run itself is
// fault-free; correctness under faults is covered by the bb package).
func RunEIG(g *graph.Directed, source graph.NodeID, f int, input []byte) (*Result, error) {
	tab, err := relay.NewTable(g, 2*f+1)
	if err != nil {
		return nil, fmt.Errorf("baseline: relay table: %w", err)
	}
	engine := sim.New(g)
	participants := g.Nodes()
	nodes := map[graph.NodeID]*bb.Node{}
	var rounds int
	for _, v := range participants {
		var value []byte
		if v == source {
			value = input
		}
		nd, err := bb.NewNode(v, participants, f, relay.NewRouter(v, tab), value)
		if err != nil {
			return nil, fmt.Errorf("baseline: node %d: %w", v, err)
		}
		nodes[v] = nd
		rounds = nd.Rounds()
		if err := engine.SetProcess(v, nd); err != nil {
			return nil, err
		}
	}
	stats, err := engine.RunPhase("baseline-eig", rounds)
	if err != nil {
		return nil, err
	}
	res := &Result{Outputs: map[graph.NodeID][]byte{}, Time: stats.CutThroughTime(), TotalBits: stats.TotalBits()}
	for v, nd := range nodes {
		nd.Finish()
		res.Outputs[v] = nd.Decide(source)
	}
	return res, nil
}

// RunFlood sends input from source to every node along 2f+1 node-disjoint
// paths; receivers take the majority.
func RunFlood(g *graph.Directed, source graph.NodeID, f int, input []byte) (*Result, error) {
	tab, err := relay.NewTable(g, 2*f+1)
	if err != nil {
		return nil, fmt.Errorf("baseline: relay table: %w", err)
	}
	engine := sim.New(g)
	routers := map[graph.NodeID]*relay.Router{}
	for _, v := range g.Nodes() {
		v := v
		r := relay.NewRouter(v, tab)
		routers[v] = r
		if err := engine.SetProcess(v, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
			out := r.HandleAll(inbox)
			if v == source && round == 0 {
				for _, d := range g.Nodes() {
					if d != v {
						out = append(out, r.Send(d, "flood", input)...)
					}
				}
			}
			return out
		})); err != nil {
			return nil, err
		}
	}
	stats, err := engine.RunPhase("baseline-flood", tab.Rounds()+1)
	if err != nil {
		return nil, err
	}
	res := &Result{Outputs: map[graph.NodeID][]byte{}, Time: stats.CutThroughTime(), TotalBits: stats.TotalBits()}
	for v, r := range routers {
		if v == source {
			res.Outputs[v] = input
			continue
		}
		got, ok := r.Majority(source, "flood")
		if !ok {
			return nil, fmt.Errorf("baseline: node %d missing majority on fault-free run", v)
		}
		res.Outputs[v] = got
	}
	return res, nil
}
