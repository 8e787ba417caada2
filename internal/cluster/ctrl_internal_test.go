package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
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
					p.coord.mu.Lock()
					logPeak = max(logPeak, len(p.coord.log))
					p.coord.mu.Unlock()
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
	p.coord.mu.Lock()
	defer p.coord.mu.Unlock()
	if len(p.coord.log) == 0 || p.coord.log[0].K != 1 {
		t.Fatalf("instance 1's decision left the replay log before any follower subscribed (%d entries)", len(p.coord.log))
	}
}

// TestRoundMachine drives the coordinator's round machine message by
// message, with no sockets and no processes, and checks the broadcasts
// each message opens.
func TestRoundMachine(t *testing.T) {
	type step struct {
		in  ctrlMsg
		out []ctrlMsg
	}
	rejoin := ctrlMsg{Type: "rejoin"}
	syncOf := func(round int) []ctrlMsg { return []ctrlMsg{{Type: "sync", Round: round}} }
	synced := func(peer int64, round, k, floor int, epoch uint64) ctrlMsg {
		return ctrlMsg{Type: "synced", Peer: peer, Round: round, K: k, Floor: floor, Epoch: epoch}
	}
	blank := func(peer int64, round int) ctrlMsg {
		return ctrlMsg{Type: "synced", Peer: peer, Round: round, Blank: true}
	}
	from := func(typ string, peer int64, round int) ctrlMsg { return ctrlMsg{Type: typ, Peer: peer, Round: round} }
	resume := func(round int) []ctrlMsg { return []ctrlMsg{{Type: "resume", Round: round}} }
	for _, tc := range []struct {
		name      string
		expect    int
		snapEvery int
		steps     []step
	}{
		{"K4Rejoin", 4, 0, []step{
			{rejoin, syncOf(1)},
			{synced(1, 1, 10, 0, 1), nil},
			{synced(2, 1, 7, 0, 3), nil},
			{synced(3, 1, 12, 0, 2), nil},
			{synced(4, 1, 9, 0, 1), []ctrlMsg{{Type: "rewind", Round: 1, K: 7, Epoch: 4}}},
			{from("rewound", 1, 1), nil},
			{from("rewound", 2, 1), nil},
			{from("rewound", 3, 1), nil},
			{from("rewound", 4, 1), resume(1)},
		}},
		{"JoinInsertsFetch", 4, 4, []step{
			{rejoin, syncOf(1)},
			{synced(1, 1, 12, 10, 2), nil},
			{blank(4, 1), nil},
			{synced(2, 1, 11, 8, 2), nil},
			{synced(3, 1, 13, 0, 1), []ctrlMsg{{Type: "fetch", Round: 1, K: 10, M: 11, Servers: []int64{1, 2, 3}}}},
			{from("joined", 1, 1), nil}, // a server is not a joiner
			{ctrlMsg{Type: "state", Round: 1, Peer: 2, Digest: 7}, []ctrlMsg{{Type: "state", Round: 1, Peer: 2, Digest: 7}}},
			{from("joined", 4, 1), []ctrlMsg{{Type: "rewind", Round: 1, K: 10, Epoch: 3}}},
			{from("rewound", 1, 1), nil},
			{from("rewound", 2, 1), nil},
			{from("rewound", 3, 1), nil},
			{from("rewound", 4, 1), resume(1)},
		}},
		{"AllBlank", 3, 0, []step{
			{rejoin, syncOf(1)},
			{blank(1, 1), nil},
			{blank(2, 1), nil},
			{blank(3, 1), []ctrlMsg{{Type: "rewind", Round: 1, K: 0, Epoch: 1}}},
		}},
		{"StaleWrongPhaseRepeated", 3, 0, []step{
			{rejoin, syncOf(1)},
			{rejoin, syncOf(2)},
			{synced(1, 1, 5, 0, 0), nil}, // stale round
			{from("rewound", 1, 2), nil}, // wrong phase
			{synced(1, 2, 5, 0, 0), nil}, // counted
			{synced(1, 2, 5, 0, 0), nil}, // repeated
			{synced(2, 2, 6, 0, 0), nil}, // one short: the repeat did not count
			{synced(3, 2, 7, 0, 0), []ctrlMsg{{Type: "rewind", Round: 2, K: 5, Epoch: 1}}},
			{synced(3, 2, 7, 0, 0), nil}, // wrong phase now
			{from("rewound", 1, 2), nil},
			{from("rewound", 1, 2), nil},
			{from("rewound", 2, 2), nil},
			{from("rewound", 3, 2), resume(2)},
			{from("rewound", 3, 2), nil}, // idle: nothing to count
		}},
		{"RejoinRestartsRound", 3, 0, []step{
			{rejoin, syncOf(1)},
			{synced(1, 1, 1, 0, 0), nil},
			{synced(2, 1, 1, 0, 0), nil},
			{rejoin, syncOf(2)},
			{synced(3, 2, 7, 0, 0), nil},
			{synced(1, 2, 5, 0, 0), nil},
			{synced(2, 2, 6, 0, 0), []ctrlMsg{{Type: "rewind", Round: 2, K: 5, Epoch: 1}}},
		}},
		{"StaleDone", 2, 0, []step{
			{from("done", 1, 0), nil},
			{rejoin, syncOf(1)},
			{from("done", 2, 0), nil}, // announced before the rollback
			{from("done", 1, 1), nil},
			{from("done", 1, 1), nil}, // repeated
			{from("done", 2, 1), []ctrlMsg{{Type: "alldone"}}},
			{from("done", 2, 1), nil},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := roundMachine{expect: tc.expect, snapEvery: tc.snapEvery}
			for i, s := range tc.steps {
				if got := r.step(s.in); !reflect.DeepEqual(got, s.out) {
					t.Fatalf("step %d: %+v opened %+v, want %+v", i, s.in, got, s.out)
				}
			}
		})
	}
}
