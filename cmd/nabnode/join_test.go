package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
	"nab/internal/transport"
)

// runJoinFromSnapshot drives the state-sync scenario end to end over real
// OS processes: spawn a durable 4-process cluster, SIGKILL the victim
// mid-stream, WIPE its WAL directory, and bring up a blank replacement
// with -join. The replacement must enter at a snapshot boundary (no full
// replay), and the cluster-wide merged commit sequence plus every node's
// final dispute set must be byte-identical to the lockstep oracle.
//
// One timing caveat keeps the check honest: the SIGKILL lands a few
// polling intervals after killAfter commits, so the victim's delivered
// watermark is only observed, not controlled. A node's outputs are
// computed solely by its own hosting process; if the join boundary J ends
// up above the victim's delivered count, the dead incarnation's outputs
// for (delivered, J] exist nowhere and are exempted from the union — the
// deterministic in-process test (internal/cluster) pins the gap-free
// case, and in practice killAfter is chosen so J lands at or below the
// kill point.
func runJoinFromSnapshot(t *testing.T, q, snapEvery, killAfter int, chaos *transport.ChaosConfig) {
	t.Helper()
	g := topo.CompleteBi(4, 1)
	const victim = graph.NodeID(2)
	advs := map[graph.NodeID]string{3: "flip"}
	cfg, path, rsv, dir := restartConfig(t, g, 1, 1, q, 2, snapEvery, advs, chaos)

	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	lock, err := core.NewRunner(coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lock.Run(cfg.Inputs())
	if err != nil {
		t.Fatal(err)
	}

	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	walFor := func(id graph.NodeID) string { return filepath.Join(dir, fmt.Sprintf("wal-%d", id)) }
	procs := map[graph.NodeID]*nodeProc{}
	for _, ns := range cfg.Nodes {
		files, env, err := childExtras(rsv, cfg, ns.ID)
		if err != nil {
			t.Fatal(err)
		}
		procs[ns.ID] = startNode(t, self, path, ns.ID, walFor(ns.ID), files, env)
	}

	vp := procs[victim]
	deadline := time.Now().Add(90 * time.Second)
	for vp.instLines() < killAfter {
		select {
		case <-vp.exited:
			t.Fatalf("victim %d exited before the kill point:\n%s", victim, vp.output())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %d never reached %d commits (at %d)", victim, killAfter, vp.instLines())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := vp.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-vp.exited
	firstOut := vp.output()
	delivered := vp.instLines()
	if bytes.Contains([]byte(firstOut), []byte(`"done":true`)) || delivered >= q {
		t.Fatalf("victim %d finished before the kill landed; raise q", victim)
	}
	t.Logf("killed node %d after %d of %d commits", victim, delivered, q)

	// The disaster the tentpole is for: the victim's disk is gone. The
	// replacement starts with an empty WAL directory and must state-sync.
	if err := os.RemoveAll(walFor(victim)); err != nil {
		t.Fatal(err)
	}
	vp2 := startNode(t, self, path, victim, walFor(victim), nil, nil, "-join")
	procs[victim] = vp2

	for id, np := range procs {
		select {
		case <-np.exited:
		case <-time.After(3 * time.Minute):
			t.Fatalf("node %d did not finish after the join", id)
		}
		if np.err != nil {
			t.Fatalf("node %d process failed: %v\n%s", id, np.err, np.output())
		}
	}

	// The joiner entered at a boundary-anchored floor without replay: its
	// first emitted instance reveals J.
	jm, jsum := mergeInstanceLines(t, victim, []string{vp2.output()})
	if jsum == nil {
		t.Fatal("joiner emitted no summary")
	}
	joinFloor := q
	for k := range jm {
		if k <= joinFloor {
			joinFloor = k - 1
		}
	}
	if joinFloor <= 0 {
		t.Fatalf("joiner re-emitted instance %d; it replayed history instead of joining from a snapshot", joinFloor+1)
	}
	if joinFloor%snapEvery != 0 {
		t.Errorf("join floor %d is not a multiple of the snapshot interval %d", joinFloor, snapEvery)
	}
	if jsum.Instances != q-joinFloor {
		t.Errorf("joiner summary reports %d instances, want %d (floor %d)", jsum.Instances, q-joinFloor, joinFloor)
	}
	t.Logf("joiner entered at floor %d (victim had delivered %d)", joinFloor, delivered)

	// Merge every stream; the dead incarnation's lines cover the prefix
	// the joiner's floor hides.
	agreed := make([]map[graph.NodeID][]byte, q)
	for i := range agreed {
		agreed[i] = map[graph.NodeID][]byte{}
	}
	for id, np := range procs {
		outs := []string{np.output()}
		if id == victim {
			outs = []string{firstOut, np.output()}
		}
		merged, sum := mergeInstanceLines(t, id, outs)
		if sum == nil {
			t.Fatalf("node %d emitted no summary", id)
		}
		if sum.Disputes != lock.Disputes().String() {
			t.Errorf("node %d dispute set %q, want %q", id, sum.Disputes, lock.Disputes())
		}
		for k, il := range merged {
			w := want.Instances[k-1]
			if il.Mismatch != w.Mismatch || il.Phase3 != w.Phase3 {
				t.Errorf("node %d instance %d: schedule diverged from lockstep", id, k)
			}
			for v, out := range il.Outputs {
				if prev, dup := agreed[k-1][v]; dup && !bytes.Equal(prev, out) {
					t.Errorf("instance %d: node %d output reported twice with different values", k, v)
				}
				agreed[k-1][v] = out
			}
		}
	}
	lost := 0
	for i, w := range want.Instances {
		k := i + 1
		for v, out := range w.Outputs {
			got, ok := agreed[i][v]
			if !ok {
				if v == victim && k > delivered && k <= joinFloor {
					lost++ // the dead disk's unemitted output; see above
					continue
				}
				t.Errorf("instance %d: node %d output never committed", k, v)
				continue
			}
			if !bytes.Equal(got, out) {
				t.Errorf("instance %d: node %d output %x, want %x", k, v, got, out)
			}
		}
	}
	if lost > 0 {
		t.Logf("exempted %d dead-disk victim outputs in (%d, %d]", lost, delivered, joinFloor)
	}
}

// TestClusterJoinFromSnapshot is the tentpole's acceptance check: a
// blank-WAL process joins a live 4-process TCP cluster mid-stream from a
// digest-validated snapshot, and the merged commit sequence + dispute
// sets stay byte-identical to the lockstep oracle. The stream is long
// enough that the kill after 10 commits lands mid-stream.
func TestClusterJoinFromSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	runJoinFromSnapshot(t, 48, 8, 10, nil)
}

// TestClusterJoinFromSnapshotUnderChaos layers the PR 7 hostile physics —
// per-link latency, jitter, reordering, plus a survivor-to-survivor
// directed partition that opens early and heals mid-join — on the
// state-sync scenario.
func TestClusterJoinFromSnapshotUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	chaos := &transport.ChaosConfig{
		Seed: 77,
		Default: transport.LinkChaos{
			Latency:     transport.Duration(time.Millisecond),
			Jitter:      transport.Duration(3 * time.Millisecond),
			ReorderProb: 0.25,
		},
		Partitions: []transport.Partition{
			{From: []graph.NodeID{1}, To: []graph.NodeID{4},
				Start: transport.Duration(300 * time.Millisecond),
				Heal:  transport.Duration(2500 * time.Millisecond)},
		},
	}
	runJoinFromSnapshot(t, 32, 8, 10, chaos)
}
