// Multi-process cluster, condensed into one program: five peers — one
// per node of K5, each with its own TCP mesh endpoint exactly as five
// separate `nabnode` processes would have — broadcast a pipelined
// workload over real sockets while a scripted false alarmer forces
// dispute control, and every peer's committed outputs are checked
// against the single-process lockstep runner. Each peer runs behind the
// streaming Session API (the same facade nabnode uses). For the real
// thing, run
//
//	go run ./cmd/nabnode -spawn-local -topo k5 -f 1 -adversary 4=alarm
//
// which spawns genuine OS processes from the same cluster config format
// (add -wal DIR to make them crash-recoverable).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sync"

	"nab"
)

func main() {
	g := nab.CompleteGraph(5, 2)
	nodes := g.Nodes()

	// Held-listener reservation: the ports stay bound from here until
	// each peer's bootstrap adopts them — nothing can snipe them between.
	rsv, err := nab.ReserveClusterAddrs(len(nodes) + 1)
	if err != nil {
		log.Fatal(err)
	}
	defer rsv.Close()
	addrs := rsv.Addrs()
	cfg := &nab.ClusterConfig{
		Topology:  g.Marshal(),
		Source:    1,
		F:         1,
		LenBytes:  32,
		Seed:      2012,
		Window:    4,
		Instances: 12,
		CtrlAddr:  addrs[len(nodes)],
	}
	for i, v := range nodes {
		spec := nab.ClusterNodeSpec{ID: v, Addr: addrs[i]}
		if v == 4 {
			spec.Adversary = "alarm" // force a dispute phase and an exclusion
		}
		cfg.Nodes = append(cfg.Nodes, spec)
	}

	// Lockstep oracle for the same workload.
	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		log.Fatal(err)
	}
	lock, err := nab.NewRunner(coreCfg)
	if err != nil {
		log.Fatal(err)
	}
	want, err := lock.Run(cfg.Inputs())
	if err != nil {
		log.Fatal(err)
	}

	// One streaming session per node, booted concurrently in any order:
	// every peer submits the identical deterministic workload and
	// collects its local nodes' commits.
	type peerOut struct {
		id      nab.NodeID
		commits []*nab.InstanceResult // collected from Commits: a session retains none
		res     *nab.PipelineResult
		err     error
	}
	ctx := context.Background()
	outs := make([]peerOut, len(nodes))
	var wg sync.WaitGroup
	for i, v := range nodes {
		wg.Add(1)
		go func(i int, v nab.NodeID) {
			defer wg.Done()
			fail := func(err error) { outs[i] = peerOut{id: v, err: err} }
			sess, err := nab.Open(ctx, nab.Config{},
				nab.WithCluster(cfg, v, nab.ClusterOptions{Reservation: rsv}))
			if err != nil {
				fail(err)
				return
			}
			defer sess.Close()
			go func() {
				for _, in := range cfg.Inputs() {
					if _, err := sess.Submit(ctx, in); err != nil {
						return
					}
				}
				sess.Drain(ctx)
			}()
			var commits []*nab.InstanceResult
			for c := range sess.Commits() {
				commits = append(commits, c.Result)
			}
			if err := sess.Err(); err != nil {
				fail(err)
				return
			}
			outs[i] = peerOut{id: v, commits: commits, res: sess.Result()}
		}(i, v)
	}
	wg.Wait()

	agreed := 0
	for _, po := range outs {
		if po.err != nil {
			log.Fatalf("peer %d: %v", po.id, po.err)
		}
		for k, ir := range po.commits {
			for v, out := range ir.Outputs {
				if !bytes.Equal(out, want.Instances[k].Outputs[v]) {
					log.Fatalf("instance %d: node %d diverged from lockstep", k+1, v)
				}
				agreed++
			}
		}
	}
	first := outs[0].res
	fmt.Printf("cluster of %d peers over TCP: %d instances committed, %d node-outputs byte-identical to lockstep\n",
		len(nodes), first.Committed(), agreed)
	fmt.Printf("dispute phases: %d (alarmer excluded), replays at barriers: %d, wall %.0fms\n",
		first.DisputePhases(), first.Replays, first.Wall.Seconds()*1000)
}
