package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
)

// TestDecisionBuffersBounded runs 300 instances on a K7 cluster with
// f = 2, one process per node and node 7 crashed, and samples every
// process's decision buffer at each of its commits. With one fault left
// to tolerate after node 7's conviction, every instance runs the flag
// agreement, so every process buffers a mismatch decision per instance
// (its own, or the coordinator's for the crashed node's host); without
// pruning the buffer ends near 300 entries.
//
// Commits are in order, and the commit of k drops every decision at or
// below k, so what stays buffered is decided but not yet committed here.
// A process with a node in V_k launches at most W instances past its
// commits, and the coordinator cannot commit an instance before those
// nodes' frames for it arrive, so it decides at most 2W instances past
// this process's commits: 2W keys, each with a mismatch and at most one
// audit entry, bound the buffer by 4W. The crashed node's host sends the
// coordinator nothing, so only its pace bounds its lag; it does no
// protocol work and keeps up.
//
// The coordinator's replay log, sampled at its commits, holds the
// decisions it broadcast for instances it has not committed: at most W
// instances past its commits, with a mismatch and at most one audit
// entry each, so the same 4W bounds it. Without pruning it ends near 300.
func TestDecisionBuffersBounded(t *testing.T) {
	const window, instances = 4, 300
	g := topo.CompleteBi(7, 1)
	nodes := g.Nodes()
	rsv, err := ReserveAddrs(len(nodes) + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	addrs := rsv.Addrs()
	cfg := &Config{
		Topology: g.Marshal(), Source: 1, F: 2, LenBytes: 16, Seed: 5,
		Window: window, Instances: instances, CtrlAddr: addrs[len(nodes)],
	}
	for i, v := range nodes {
		spec := NodeSpec{ID: v, Addr: addrs[i]}
		if v == 7 {
			spec.Adversary = "crash"
		}
		cfg.Nodes = append(cfg.Nodes, spec)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	peaks := make([]int, len(nodes))
	logPeak := -1 // the coordinator's replay log
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, v := range nodes {
		wg.Add(1)
		go func(i int, v graph.NodeID) {
			defer wg.Done()
			n, err := Start(cfg, v, Options{BootTimeout: 30 * time.Second, Reservation: rsv}, nil)
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			subs := make(chan []byte, instances)
			for _, in := range cfg.Inputs() {
				subs <- in
			}
			close(subs)
			p, d := n.ctrl, n.ctrl.d
			_, errs[i] = n.Stream(context.Background(), subs, func(*core.InstanceResult) error {
				d.mu.Lock()
				peaks[i] = max(peaks[i], len(d.mismatch)+len(d.audits))
				d.mu.Unlock()
				if p.listener != nil {
					p.subMu.Lock()
					logPeak = max(logPeak, len(p.log))
					p.subMu.Unlock()
				}
				return nil
			})
		}(i, v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	for i, peak := range peaks {
		if peak > 4*window {
			t.Errorf("process %d: decision buffer peaked at %d entries, want at most %d", i, peak, 4*window)
		}
	}
	if logPeak < 0 || logPeak > 4*window {
		t.Errorf("coordinator replay log peaked at %d entries, want 0 to %d", logPeak, 4*window)
	}
	t.Logf("decision buffer peaks per process: %v; coordinator replay log peak: %d", peaks, logPeak)
}
