package exp

import (
	"fmt"

	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/spantree"
)

// pipeMsg tags a Phase-1 block with its instance, so many instances can
// stream through the network simultaneously.
type pipeMsg struct {
	Instance int
	Tree     int
	Bits     int64
}

// simulatePipelinedPhase1 measures the Appendix D effect directly: q
// instances' Phase-1 broadcasts are injected one round apart and flow
// through the arborescences concurrently, so hop h of instance i shares
// round i+h with hop h-1 of instance i+1. The store-and-forward time of
// the combined run is the pipelined total; the sequential total is q times
// a single instance's store-and-forward time.
func simulatePipelinedPhase1(g *graph.Directed, source graph.NodeID, lenBits, q int) (sequential, pipelined float64, err error) {
	gamma, err := g.BroadcastMincut(source)
	if err != nil {
		return 0, 0, err
	}
	trees, err := spantree.PackArborescences(g, source, int(gamma))
	if err != nil {
		return 0, 0, err
	}
	depth := 0
	for _, tr := range trees {
		if d := tr.Depth(); d > depth {
			depth = d
		}
	}
	blockBits := func(tree int) int64 {
		lo := tree * lenBits / len(trees)
		hi := (tree + 1) * lenBits / len(trees)
		return int64(hi - lo)
	}

	run := func(instances int, injectEvery int) (float64, error) {
		e := sim.New(g)
		for _, v := range g.Nodes() {
			v := v
			if v == source {
				if err := e.SetProcess(v, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
					if round%injectEvery != 0 {
						return nil
					}
					inst := round / injectEvery
					if inst >= instances {
						return nil
					}
					var out []sim.Message
					for ti, tr := range trees {
						for _, ed := range tr.Edges() {
							if ed.From != source {
								continue
							}
							out = append(out, sim.Message{
								From: source, To: ed.To, Bits: blockBits(ti),
								Body: pipeMsg{Instance: inst, Tree: ti, Bits: blockBits(ti)},
							})
						}
					}
					return out
				})); err != nil {
					return 0, err
				}
				continue
			}
			if err := e.SetProcess(v, sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
				var out []sim.Message
				for _, m := range inbox {
					pm, ok := m.Body.(pipeMsg)
					if !ok || pm.Tree < 0 || pm.Tree >= len(trees) {
						continue
					}
					tr := trees[pm.Tree]
					if parent, inTree := tr.Parent[v]; !inTree || parent != m.From {
						continue
					}
					for _, ed := range tr.Edges() {
						if ed.From != v {
							continue
						}
						out = append(out, sim.Message{From: v, To: ed.To, Bits: pm.Bits, Body: pm})
					}
				}
				return out
			})); err != nil {
				return 0, err
			}
		}
		rounds := instances*injectEvery + depth + 1
		stats, err := e.RunPhase("pipe", rounds)
		if err != nil {
			return 0, err
		}
		return stats.StoreForwardTime(), nil
	}

	// Sequential baseline: one instance at a time (inject every depth+1
	// rounds so instances never overlap).
	seq, err := run(q, depth+1)
	if err != nil {
		return 0, 0, fmt.Errorf("sequential: %w", err)
	}
	// Pipelined: a new instance every round.
	pip, err := run(q, 1)
	if err != nil {
		return 0, 0, fmt.Errorf("pipelined: %w", err)
	}
	return seq, pip, nil
}
