package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nab/internal/cluster"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
)

// TestMain doubles as the nabnode binary: the e2e tests (and -spawn-local
// itself) re-exec the test executable with NABNODE_CHILD=1, so each
// cluster node genuinely runs in an OS process of its own, over real TCP
// sockets, without needing a prebuilt binary.
func TestMain(m *testing.M) {
	if os.Getenv("NABNODE_CHILD") == "1" {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "nabnode:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// e2eConfig builds a K4 cluster config with one process per node, its
// endpoints reserved as held listeners for the fd handoff.
func e2eConfig(t *testing.T, q int, advs map[graph.NodeID]string) (*cluster.Config, string, *cluster.Reservation) {
	t.Helper()
	g := topo.CompleteBi(4, 1)
	nodes := g.Nodes()
	rsv, err := cluster.ReserveAddrs(len(nodes) + 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsv.Close() })
	addrs := rsv.Addrs()
	cfg := &cluster.Config{
		Topology: g.Marshal(), Source: 1, F: 1,
		LenBytes: 24, Seed: 11, Window: 4, Instances: q,
		CtrlAddr: addrs[len(nodes)],
	}
	for i, v := range nodes {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeSpec{ID: v, Addr: addrs[i], Adversary: advs[v]})
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cluster.json"
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	return cfg, path, rsv
}

// spawnNodes runs one OS process per node of the config — each adopting
// its reserved listeners via inherited descriptors — and returns each
// process's stdout.
func spawnNodes(t *testing.T, cfg *cluster.Config, path string, rsv *cluster.Reservation) map[graph.NodeID]string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outs := map[graph.NodeID]*bytes.Buffer{}
	var wg sync.WaitGroup
	errs := make([]error, len(cfg.Nodes))
	for i, ns := range cfg.Nodes {
		buf := &bytes.Buffer{}
		outs[ns.ID] = buf
		files, env, err := childExtras(rsv, cfg, ns.ID)
		if err != nil {
			t.Fatalf("node %d listeners: %v", ns.ID, err)
		}
		cmd := exec.CommandContext(ctx, self, "-cluster", path, "-id", fmt.Sprint(ns.ID))
		cmd.Env = append(append(os.Environ(), "NABNODE_CHILD=1"), env...)
		cmd.ExtraFiles = files
		cmd.Stdout = buf
		cmd.Stderr = os.Stderr
		err = cmd.Start()
		for _, f := range files {
			f.Close() // the child owns the sockets now
		}
		if err != nil {
			t.Fatalf("spawn node %d: %v", ns.ID, err)
		}
		wg.Add(1)
		go func(i int, id graph.NodeID) {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				errs[i] = fmt.Errorf("node %d process: %w", id, err)
			}
		}(i, ns.ID)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	res := map[graph.NodeID]string{}
	for id, buf := range outs {
		res[id] = buf.String()
	}
	return res
}

// parseStream decodes one node process's JSONL output.
func parseStream(t *testing.T, id graph.NodeID, out string) ([]instanceLine, summaryLine) {
	t.Helper()
	var lines []instanceLine
	var sum summaryLine
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		raw := sc.Text()
		if strings.Contains(raw, `"done":true`) {
			if err := json.Unmarshal([]byte(raw), &sum); err != nil {
				t.Fatalf("node %d summary line %q: %v", id, raw, err)
			}
			continue
		}
		var il instanceLine
		if err := json.Unmarshal([]byte(raw), &il); err != nil {
			t.Fatalf("node %d instance line %q: %v", id, raw, err)
		}
		lines = append(lines, il)
	}
	if !sum.Done {
		t.Fatalf("node %d emitted no summary line; output:\n%s", id, out)
	}
	return lines, sum
}

// TestClusterE2E is the PR's acceptance check: a 4-process K4 cluster
// (separate OS processes over real TCP) completes 8 pipelined instances
// with outputs byte-identical to the lockstep Runner, under the honest
// schedule and three adversary scenarios.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	const q = 8
	scenarios := []struct {
		name string
		advs map[graph.NodeID]string
	}{
		{"Honest", nil},
		{"Crash", map[graph.NodeID]string{3: "crash"}},
		{"BlockFlipper", map[graph.NodeID]string{3: "flip"}},
		{"FalseAlarm", map[graph.NodeID]string{3: "alarm"}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg, path, rsv := e2eConfig(t, q, sc.advs)

			// Lockstep oracle.
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

			outs := spawnNodes(t, cfg, path, rsv)

			merged := make([]map[graph.NodeID][]byte, q)
			for i := range merged {
				merged[i] = map[graph.NodeID][]byte{}
			}
			for id, out := range outs {
				lines, sum := parseStream(t, id, out)
				if sum.Instances != q {
					t.Errorf("node %d committed %d instances, want %d", id, sum.Instances, q)
				}
				if sum.Disputes != lock.Disputes().String() {
					t.Errorf("node %d dispute set %q, want %q", id, sum.Disputes, lock.Disputes())
				}
				if sum.Dropped != 0 {
					t.Errorf("node %d dropped %d frames", id, sum.Dropped)
				}
				for _, il := range lines {
					w := want.Instances[il.Instance-1]
					if il.Mismatch != w.Mismatch || il.Phase3 != w.Phase3 {
						t.Errorf("node %d instance %d: mismatch/phase3 = %v/%v, want %v/%v",
							id, il.Instance, il.Mismatch, il.Phase3, w.Mismatch, w.Phase3)
					}
					for v, out := range il.Outputs {
						if prev, dup := merged[il.Instance-1][v]; dup && !bytes.Equal(prev, out) {
							t.Errorf("instance %d: node %d output reported twice with different values", il.Instance, v)
						}
						merged[il.Instance-1][v] = out
					}
				}
			}
			for i, w := range want.Instances {
				if len(merged[i]) != len(w.Outputs) {
					t.Errorf("instance %d: cluster committed %d outputs, lockstep %d", i+1, len(merged[i]), len(w.Outputs))
				}
				for v, out := range w.Outputs {
					if !bytes.Equal(merged[i][v], out) {
						t.Errorf("instance %d: node %d output %x, want %x", i+1, v, merged[i][v], out)
					}
				}
			}
		})
	}
}

// TestSpawnLocal exercises the one-command bring-up path end to end: the
// parent generates the config, spawns one child OS process per node, and
// relays their streams.
func TestSpawnLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	outPath := t.TempDir() + "/cluster.json"
	err := run([]string{
		"-spawn-local", "-topo", "k4", "-f", "1", "-len", "16",
		"-q", "4", "-seed", "3", "-out", outPath, "-adversary", "4=crash",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("spawn-local: %v\nstderr:\n%s", err, stderr.String())
	}
	if _, err := cluster.Load(outPath); err != nil {
		t.Errorf("generated config does not load: %v", err)
	}
	done := 0
	sc := bufio.NewScanner(strings.NewReader(stdout.String()))
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done":true`) {
			done++
		}
	}
	if done != 4 {
		t.Errorf("saw %d summary lines, want 4; output:\n%s", done, stdout.String())
	}
}

// TestSpawnLocalChildDeathFailsFast makes one child die at boot — node 3's
// WAL path is a regular file, so its log cannot open — and the spawn must
// fail with that child's error at once: the survivors would otherwise wait
// for node 3's frames forever.
func TestSpawnLocalChildDeathFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	walDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(walDir, "node-3"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-spawn-local", "-topo", "k4", "-f", "1", "-len", "16",
			"-q", "8", "-seed", "3", "-wal", walDir,
		}, io.Discard, io.Discard)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "node 3") {
			t.Fatalf("spawn-local with a dead node 3 returned %v, want node 3's error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("spawn-local still running 30s after node 3 died")
	}
}
