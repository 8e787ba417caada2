package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"nab/internal/core"
	"nab/internal/graph"
)

// TestDurableStreamBackpressure: a durable process pulls submissions only
// as its stream consumes them. On a K4 cluster of blank durable processes
// (no join round), node 2's commit sink blocks on its first commit; node 2
// then holds at most the window in its runtime, the window in its
// feeder's buffer and one submission in the feeder's hand, and the rest
// of its producer channel stays unread. Released, every process commits
// the whole workload.
func TestDurableStreamBackpressure(t *testing.T) {
	const q = 64
	cfg, rsv := joinConfig(t, q, 0, nil)
	const slow = graph.NodeID(2)
	opts := Options{BootTimeout: 30 * time.Second, Reservation: rsv}
	var nodes []*Node
	for _, spec := range cfg.Nodes { // the coordinator first
		n, err := Start(cfg, spec.ID, opts, &Recovery{})
		if err != nil {
			t.Fatalf("start node %d: %v", spec.ID, err)
		}
		t.Cleanup(func() { n.Close() })
		nodes = append(nodes, n)
	}

	blocked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var slowSubs chan []byte
	errs := make([]error, len(nodes))
	commits := make([]int, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		subs := make(chan []byte, q)
		for _, in := range cfg.Inputs() {
			subs <- in
		}
		close(subs)
		if n.locals[0] == slow {
			slowSubs = subs
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = n.Stream(context.Background(), subs, func(*core.InstanceResult) error {
				if n.locals[0] == slow {
					once.Do(func() {
						close(blocked)
						<-release
					})
				}
				commits[i]++
				return nil
			})
		}()
	}

	select {
	case <-blocked:
	case <-time.After(time.Minute):
		t.Fatal("node 2 never committed")
	}
	bound := 2*nodes[0].rt.Window() + 1
	for range 20 {
		if pulled := q - len(slowSubs); pulled > bound {
			close(release)
			t.Fatalf("node 2 pulled %d submissions with its first commit blocked, want at most %d", pulled, bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
		if commits[i] != q {
			t.Errorf("process %d committed %d instances, want %d", i, commits[i], q)
		}
	}
}
