package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/topo"
)

// TestDecisionBuffersBounded runs 300 instances on a K7 cluster with
// f = 2, one process per node and node 7 crashed, and samples the
// coordinator's replay log at each of its commits. With one fault left to
// tolerate after node 7's conviction, every instance runs the flag
// agreement, so the coordinator publishes a mismatch decision per
// instance; without pruning the log ends near 300 entries.
//
// Publishing instance K's decision drops those of instances at or below
// K-W, all committed here since K launched. So the log holds decisions of
// at most W consecutive instances: a mismatch and at most one audit entry
// each, doubled at most by the relaunches of a dispute barrier, which
// bounds it by 4W. A follower files a decision into its execution's
// engine, which goes with the execution, so it keeps no buffer of its own
// (the runtime's Decide tests bound what it holds).
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
			p := n.ctrl
			_, errs[i] = n.Stream(context.Background(), subs, func(*core.InstanceResult) error {
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
	if logPeak < 0 || logPeak > 4*window {
		t.Errorf("coordinator replay log peaked at %d entries, want 0 to %d", logPeak, 4*window)
	}
	t.Logf("coordinator replay log peak: %d", logPeak)
}

// TestControlLineBounded: a control connection that sends a message
// longer than any of the configured payload size — one unterminated line,
// or a value spread over many short lines — is closed instead of buffered
// without bound.
func TestControlLineBounded(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	rsv, err := ReserveAddrs(5)
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	addrs := rsv.Addrs()
	cfg := &Config{
		Topology: g.Marshal(), Source: 1, F: 1, LenBytes: 16, Seed: 5,
		Instances: 1, CtrlAddr: addrs[4],
	}
	for i, v := range g.Nodes() {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{ID: v, Addr: addrs[i]})
	}
	n, err := Start(cfg, 1, Options{Reservation: rsv}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, tc := range []struct{ name, head, body string }{
		{"line", `{"type":"`, strings.Repeat("a", 1<<20)},
		{"lines", `{"type":"done","disputes":[`, strings.Repeat("[1,2],\n", 1<<17)},
	} {
		conn, err := net.Dial("tcp", cfg.CtrlAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		// A write error means the coordinator already closed the connection.
		if _, err := io.WriteString(conn, tc.head); err == nil {
			io.WriteString(conn, tc.body)
		}
		if _, err := io.Copy(io.Discard, conn); err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: the coordinator kept the connection of an oversize message open", tc.name)
		}
	}
}

// TestReplayLogKeptUntilFollowersSubscribe: the coordinator prunes its
// decision replay log only once every follower has subscribed under its
// own lead id. Three raw connections to a K4 coordinator read their replay
// and close without subscribing; after 3W more decisions, instance 1's is
// still in the log for the followers that have not subscribed yet.
func TestReplayLogKeptUntilFollowersSubscribe(t *testing.T) {
	g := topo.CompleteBi(4, 1)
	rsv, err := ReserveAddrs(5)
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	addrs := rsv.Addrs()
	cfg := &Config{
		Topology: g.Marshal(), Source: 1, F: 1, LenBytes: 16, Seed: 5,
		Window: 2, Instances: 1, CtrlAddr: addrs[4],
	}
	for i, v := range g.Nodes() {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{ID: v, Addr: addrs[i]})
	}
	n, err := Start(cfg, 1, Options{Reservation: rsv}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p := n.ctrl
	p.publish(runtime.Decision{K: 1, Launch: 1})
	for range 3 {
		conn, err := net.Dial("tcp", cfg.CtrlAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		var m ctrlMsg
		if err := json.NewDecoder(conn).Decode(&m); err != nil || m.K != 1 {
			t.Fatalf("replay = %+v, %v; want instance 1's decision", m, err)
		}
		conn.Close()
	}
	w := n.rt.Window()
	for k := 2; k <= 3*w+1; k++ {
		p.publish(runtime.Decision{K: k, Launch: uint64(k)})
	}
	p.subMu.Lock()
	defer p.subMu.Unlock()
	if len(p.log) == 0 || p.log[0].K != 1 {
		t.Fatalf("instance 1's decision left the replay log before any follower subscribed (%d entries)", len(p.log))
	}
}
