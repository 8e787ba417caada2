package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nab/internal/core"
	"nab/internal/flight"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/topo"
	"nab/internal/wal"
)

// joinConfig assembles a one-node-per-process K4 loopback cluster with a
// join snapshot boundary small enough that mid-stream joins fetch a real
// (non-empty) snapshot.
func joinConfig(t *testing.T, q, snapEvery int, advs map[graph.NodeID]string) (*Config, *Reservation) {
	t.Helper()
	g := topo.CompleteBi(4, 1)
	nodes := g.Nodes()
	rsv, err := ReserveAddrs(len(nodes) + 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsv.Close() })
	addrs := rsv.Addrs()
	cfg := &Config{
		Topology: g.Marshal(), Source: 1, F: 1,
		LenBytes: 24, Seed: 9, Window: 2, Instances: q,
		CtrlAddr:         addrs[len(nodes)],
		SnapshotInterval: snapEvery,
	}
	for i, v := range nodes {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{ID: v, Addr: addrs[i], Adversary: advs[v]})
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg, rsv
}

// durableRun is one in-process stand-in for a durable OS process: a
// started Node plus its supervised stream.
type durableRun struct {
	n      *Node
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	commits []*core.InstanceResult
	res     *runtime.Result
	err     error
}

// stream launches the run's Stream over the full workload; killAt > 0
// cancels the stream's context from inside the commit callback once that
// many fresh commits have been delivered (a deterministic mid-stream
// crash).
func (dr *durableRun) stream(cfg *Config, killAt int) {
	ctx, cancel := context.WithCancel(context.Background())
	dr.cancel = cancel
	dr.done = make(chan struct{})
	subs := make(chan []byte, cfg.Instances)
	for _, in := range cfg.Inputs() {
		subs <- in
	}
	close(subs)
	go func() {
		defer close(dr.done)
		res, err := dr.n.Stream(ctx, subs, func(ir *core.InstanceResult) error {
			dr.mu.Lock()
			dr.commits = append(dr.commits, ir)
			cnt := len(dr.commits)
			dr.mu.Unlock()
			if killAt > 0 && cnt >= killAt {
				cancel()
			}
			return nil
		})
		dr.mu.Lock()
		dr.res, dr.err = res, err
		dr.mu.Unlock()
	}()
}

// runJoinScenario drives the in-process join round: boot a durable
// 4-process cluster, crash the victim after killAt commits, start a
// blank replacement with Join, and verify the union of everyone's
// commits (and final dispute state) is byte-identical to the lockstep
// oracle. tamper, when non-nil, is installed on the coordinator's node
// as a Byzantine snapshot server before any stream starts.
//
// The parameters are chosen so the join boundary is deterministic: with
// snapshot granularity 8, pipeline window 2 and the kill at 10 delivered
// commits, every survivor watermark lies in [8, 14] (the victim's frame
// dependencies bound the skew to the window on each side), so the round's
// boundary is exactly 8 — and 8 never exceeds the victim's delivered
// count, so the joiner's re-execution covers every output the dead
// incarnation left unemitted.
func runJoinScenario(t *testing.T, q, killAt int, tamper func(*ctrlMsg)) {
	t.Helper()
	cfg, rsv := joinConfig(t, q, 8, map[graph.NodeID]string{3: "alarm"})
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

	const victim = graph.NodeID(2)
	opts := Options{BootTimeout: 30 * time.Second, Reservation: rsv}
	runs := map[graph.NodeID]*durableRun{}
	// The coordinator first, so follower control dials land immediately.
	order := []graph.NodeID{1, 2, 3, 4}
	for _, v := range order {
		n, err := Start(cfg, v, opts, &Recovery{})
		if err != nil {
			t.Fatalf("start node %d: %v", v, err)
		}
		t.Cleanup(func() { n.Close() })
		runs[v] = &durableRun{n: n}
	}
	if tamper != nil {
		runs[1].n.testServeTamper = tamper
	}
	for _, v := range order {
		kill := 0
		if v == victim {
			kill = killAt
		}
		runs[v].stream(cfg, kill)
	}

	// The victim crashes itself at killAt; reap it and close its sockets.
	vr := runs[victim]
	select {
	case <-vr.done:
	case <-time.After(time.Minute):
		t.Fatal("victim never reached its kill point")
	}
	if vr.err == nil {
		t.Fatal("victim finished the workload before the kill point; raise q")
	}
	vr.n.Close()
	t.Logf("killed victim after %d commits", len(vr.commits))

	// The blank replacement: no reservation (the victim's listener died
	// with it; the joiner rebinds the configured address itself).
	jn, err := Start(cfg, victim, Options{BootTimeout: 30 * time.Second, Join: true}, &Recovery{})
	if err != nil {
		t.Fatalf("start joiner: %v", err)
	}
	t.Cleanup(func() { jn.Close() })
	joiner := &durableRun{n: jn}
	joiner.stream(cfg, 0)
	runs[victim] = joiner

	for _, v := range order {
		select {
		case <-runs[v].done:
		case <-time.After(3 * time.Minute):
			t.Fatalf("node %d did not finish after the join", v)
		}
		if err := runs[v].err; err != nil {
			t.Fatalf("node %d stream failed: %v", v, err)
		}
	}

	// The joiner entered at the snapshot boundary, never replaying history.
	floor := joiner.n.base.K
	if floor != 8 {
		t.Fatalf("joiner floor = %d; want the deterministic boundary 8", floor)
	}
	if first := joiner.commits[0].K; first != floor+1 {
		t.Fatalf("joiner's first commit is instance %d, want %d (floor %d)", first, floor+1, floor)
	}
	if last := joiner.commits[len(joiner.commits)-1].K; last != q {
		t.Fatalf("joiner's last commit is instance %d, want %d", last, q)
	}
	t.Logf("joiner entered at floor %d (%d live commits)", floor, len(joiner.commits))

	// Union of all processes' commit streams vs the lockstep oracle. The
	// victim's pre-crash commits were delivered (instances the joiner's
	// floor hides from its own stream), so its first incarnation merges
	// alongside the replacement.
	merged := make([]map[graph.NodeID][]byte, q)
	for i := range merged {
		merged[i] = map[graph.NodeID][]byte{}
	}
	streams := map[graph.NodeID]*durableRun{}
	for v, dr := range runs {
		streams[v] = dr
	}
	streams[victim+100] = vr // distinct key; node ids are 1..4
	for v, dr := range streams {
		if v > 100 {
			v -= 100
		}
		prev := 0
		for _, ir := range dr.commits {
			if prev > 0 && ir.K != prev+1 {
				t.Errorf("node %d: commit %d after %d (duplicated or skipped)", v, ir.K, prev)
			}
			prev = ir.K
			w := want.Instances[ir.K-1]
			if ir.Mismatch != w.Mismatch || ir.Phase3 != w.Phase3 {
				t.Errorf("node %d instance %d: schedule diverged from lockstep", v, ir.K)
			}
			for nv, out := range ir.Outputs {
				if old, dup := merged[ir.K-1][nv]; dup && !bytes.Equal(old, out) {
					t.Errorf("instance %d: node %d output reported twice with different values", ir.K, nv)
				}
				merged[ir.K-1][nv] = out
			}
		}
	}
	// The live processes (the joiner included) must end at the oracle's
	// dispute state; the crashed incarnation's is frozen mid-run.
	for v, dr := range runs {
		if got, wantD := dr.n.Runtime().Disputes().String(), lock.Disputes().String(); got != wantD {
			t.Errorf("node %d dispute set %q, want %q", v, got, wantD)
		}
	}
	for i, w := range want.Instances {
		if len(merged[i]) != len(w.Outputs) {
			t.Errorf("instance %d: cluster committed %d outputs, lockstep %d", i+1, len(merged[i]), len(w.Outputs))
		}
		for nv, out := range w.Outputs {
			if !bytes.Equal(merged[i][nv], out) {
				t.Errorf("instance %d: node %d output %x, want %x", i+1, nv, merged[i][nv], out)
			}
		}
	}
}

// TestClusterJoinMidStream crashes one process of a live durable cluster
// and replaces it with a blank joiner: the joiner installs the snapshot
// its servers pushed over the control plane, enters at the rewind floor
// without replaying history, and the cluster-wide commit union stays
// byte-identical to the lockstep oracle (dispute evolution included —
// the workload excludes a false alarmer before the crash).
func TestClusterJoinMidStream(t *testing.T) {
	runJoinScenario(t, 20, 10, nil)
}

// TestClusterJoinByzantineDigests makes the coordinator's own node a
// Byzantine snapshot server: it pushes a corrupted snapshot and digest
// during the fetch phase. With f = 1 the joiner demands 2 matching
// copies, the two honest survivors outvote the liar, and the join
// completes byte-identically anyway.
func TestClusterJoinByzantineDigests(t *testing.T) {
	var fired atomic.Bool
	runJoinScenario(t, 20, 10, func(m *ctrlMsg) {
		fired.Store(true)
		m.Data[len(m.Data)-1] ^= 1
		m.Digest ^= 0xbeef
	})
	if !fired.Load() {
		t.Fatal("the Byzantine server was never asked to serve; the scenario did not exercise the fetch phase")
	}
}

// TestJoinRejectedBeforeEndpoints checks that StartContext refuses an
// invalid Join before it opens anything: the reserved mesh and
// control-plane listeners of the source's host stay with the Reservation.
func TestJoinRejectedBeforeEndpoints(t *testing.T) {
	cfg, rsv := joinConfig(t, 4, 0, nil)
	spec, _ := cfg.Spec(cfg.Source)
	opt := Options{BootTimeout: time.Second, Reservation: rsv, Join: true}
	for _, tc := range []struct {
		name string
		rec  *Recovery
		want string
	}{
		{"no recovery", nil, "requires a Recovery"},
		{"with a base", &Recovery{Base: &wal.Snapshot{}}, "blank WAL"},
		{"with commits", &Recovery{Committed: []*core.InstanceResult{{K: 1}}}, "blank WAL"},
	} {
		n, err := StartContext(context.Background(), cfg, cfg.Source, opt, tc.rec)
		if err == nil {
			n.Close()
			t.Fatalf("%s: Join accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		for _, addr := range []string{spec.Addr, cfg.CtrlAddr} {
			l := rsv.Take(addr)
			if l == nil {
				t.Fatalf("%s: the rejected start took the reserved listener for %s", tc.name, addr)
			}
			rsv.Add(addr, l)
		}
	}
}

// TestServedStateMatchesOracle pins what a durable process serves a join
// round to the lockstep oracle: at every boundary j the state message
// carries the canonical snapshot of the oracle's dispute state folded to
// j with wal.Chain over the fold projections of its first j commits, and
// the digest at the pre-join watermark. The single-process log's snapshot
// records are pinned to the same oracle bytes by the root package's
// TestLineageDigestAgreesAcrossEngines, so the two logs agree.
func TestServedStateMatchesOracle(t *testing.T) {
	const q = 8
	cfg, rsv := joinConfig(t, q, 0, map[graph.NodeID]string{3: "alarm"})
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
	if want.DisputePhases() == 0 {
		t.Fatal("the oracle ran no Phase 3; the snapshots would carry no dispute findings")
	}
	ds := core.NewDisputeState(coreCfg.Graph)
	chain := []uint64{wal.DigestSeed}
	snaps := [][]byte{wal.AppendSnapshot(nil, wal.Snapshot{SnapshotState: ds.State(), Digest: wal.DigestSeed})}
	for _, ir := range want.Instances {
		if err := lock.Protocol().Fold(ds, ir); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, wal.Chain(chain[len(chain)-1], wal.AppendCommitFold(nil, ir)))
		snaps = append(snaps, wal.AppendSnapshot(nil, wal.Snapshot{SnapshotState: ds.State(), Digest: chain[len(chain)-1]}))
	}

	opts := Options{BootTimeout: 30 * time.Second, Reservation: rsv}
	var runs []*durableRun
	for _, spec := range cfg.Nodes { // the coordinator first
		n, err := Start(cfg, spec.ID, opts, &Recovery{})
		if err != nil {
			t.Fatalf("start node %d: %v", spec.ID, err)
		}
		t.Cleanup(func() { n.Close() })
		runs = append(runs, &durableRun{n: n})
	}
	for _, dr := range runs {
		dr.stream(cfg, 0)
	}
	for _, dr := range runs {
		select {
		case <-dr.done:
		case <-time.After(time.Minute):
			t.Fatal("a node did not finish the workload")
		}
		if dr.err != nil {
			t.Fatalf("stream: %v", dr.err)
		}
	}
	for i, dr := range runs {
		for j := 0; j <= q; j++ {
			msg, err := dr.n.stateMsg(ctrlMsg{Type: "fetch", K: j, M: q, Servers: []int64{dr.n.lead}})
			if err != nil {
				t.Fatalf("process %d: serve boundary %d: %v", i, j, err)
			}
			if !bytes.Equal(msg.Data, snaps[j]) {
				t.Errorf("process %d serves other snapshot bytes at %d than the oracle's", i, j)
			}
			if msg.Digest != chain[q] {
				t.Errorf("process %d serves digest %016x at watermark %d, oracle chain %016x", i, msg.Digest, q, chain[q])
			}
		}
	}
}

// TestJoinFetchRefusesShortQuorum pins the fault-model floor of the join
// round: with fewer than f+1 eligible snapshot servers, every digest vote
// could be Byzantine, so the joiner must refuse the transfer outright
// rather than silently cross-validating against whatever is there.
func TestJoinFetchRefusesShortQuorum(t *testing.T) {
	cfg, _ := joinConfig(t, 4, 0, nil) // F = 1: the quorum needs 2 servers
	n := &Node{cfg: cfg}
	for _, servers := range [][]int64{nil, {7}} {
		_, err := n.tally(ctrlMsg{Type: "fetch", K: 0, M: 2, Servers: servers})
		if err == nil || !strings.Contains(err.Error(), "eligible snapshot servers") {
			t.Errorf("servers %v: err = %v, want a short-quorum refusal", servers, err)
		}
	}
}

// snapAt is an honest server's canonical snapshot bytes at boundary k of
// a fresh cluster.
func snapAt(k int) []byte {
	return wal.AppendSnapshot(nil, wal.Snapshot{SnapshotState: core.SnapshotState{K: k}, Digest: wal.DigestSeed})
}

// TestJoinFetchValidation drives the joiner's vote function with scripted
// servers (f = 1, so 2 matching copies install): the honest quorum wins
// over a flipped snapshot byte and over a digest-only liar, a quorum on a
// snapshot anchored off the boundary is rejected, a split vote fails, and
// neither a non-server nor a server's second vote counts.
func TestJoinFetchValidation(t *testing.T) {
	fetch := ctrlMsg{Type: "fetch", Round: 1, K: 0, M: 2, Servers: []int64{1, 2, 3}}
	honest, wrongK := snapAt(0), snapAt(1)
	flipped := append([]byte(nil), honest...)
	flipped[len(flipped)-1] ^= 1
	const d = uint64(0xfeed)
	type vote struct {
		peer   int64
		snap   []byte
		digest uint64
	}
	cases := []struct {
		name    string
		votes   []vote
		install bool
		wantErr string
	}{
		{"honest f+1 installs", []vote{{1, honest, d}, {2, honest, d}}, true, ""},
		{"flipped snapshot byte outvoted", []vote{{1, flipped, d}, {2, honest, d}, {3, honest, d}}, true, ""},
		{"digest-only liar outvoted", []vote{{1, honest, d ^ 1}, {2, honest, d}, {3, honest, d}}, true, ""},
		{"f+1 at the wrong K rejected", []vote{{1, wrongK, d}, {2, wrongK, d}}, false, "quorum snapshot at 1, want 0"},
		{"all votes distinct", []vote{{1, honest, d}, {2, honest, d ^ 1}, {3, flipped, d}}, false, "no snapshot reached 2 matching copies"},
		{"non-server ignored", []vote{{7, honest, d}, {1, honest, d}}, false, ""},
		{"second vote of one server ignored", []vote{{1, honest, d}, {1, honest, d}}, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := newVotes(fetch, 2)
			var res *joinResult
			var err error
			for i, vt := range tc.votes {
				if res != nil || err != nil {
					t.Fatalf("vote %d arrived after the tally finished", i)
				}
				res, err = v.add(ctrlMsg{Type: "state", Round: 1, Peer: vt.peer, Data: vt.snap, Digest: vt.digest})
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.install {
				if res != nil {
					t.Fatalf("installed %+v with fewer than 2 counted votes", res)
				}
				return
			}
			if res == nil {
				t.Fatal("the honest quorum installed nothing")
			}
			if res.base.K != 0 || res.base.Digest != wal.DigestSeed || res.m != 2 || res.mDigest != d {
				t.Fatalf("installed base K=%d digest=%x m=%d mDigest=%x", res.base.K, res.base.Digest, res.m, res.mDigest)
			}
		})
	}
}

// TestJoinStatePinnedToConnection pins server identity to the
// control connection: the coordinator drops a state sent before the
// connection's subscription and a second subscription naming another id,
// and stamps the subscribed id on every state it relays — so a follower
// sending state under two Peer values casts one vote.
func TestJoinStatePinnedToConnection(t *testing.T) {
	p, err := newCoordinator("127.0.0.1:0", 4, nil, true, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	snap := snapAt(0)
	enc := json.NewEncoder(conn)
	for _, m := range []ctrlMsg{
		{Type: "state", Round: 1, Peer: 2, Data: snap, Digest: 1}, // unpinned: dropped
		{Type: "subscribe", Peer: 2},
		{Type: "subscribe", Peer: 3}, // re-pin to another id: dropped
		{Type: "state", Round: 1, Peer: 2, Data: snap, Digest: 2},
		{Type: "state", Round: 1, Peer: 3, Data: snap, Digest: 2},
	} {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	v := newVotes(ctrlMsg{Type: "fetch", Round: 1, K: 0, M: 2, Servers: []int64{2, 3, 4}}, 2)
	for range 2 {
		select {
		case ev := <-p.Events():
			if ev.Type != "state" || ev.Peer != 2 || ev.Digest != 2 {
				t.Fatalf("relayed %+v; want a state stamped with the pinned peer 2", ev)
			}
			if res, err := v.add(ev); res != nil || err != nil {
				t.Fatalf("one follower reached a quorum alone: %+v, %v", res, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the coordinator relayed no state")
		}
	}
	if v.cast != 1 {
		t.Fatalf("votes counted = %d, want 1", v.cast)
	}
}

// TestRollbackErrorNamesRoundAndPhase pins the rollback boundary's typed
// failure: a follower whose coordinator never comes back fails its
// reconnect with an error naming the round and the phase, and the armed
// flight recorder holds the rollback-failed anomaly.
func TestRollbackErrorNamesRoundAndPhase(t *testing.T) {
	rec := flight.Default()
	rec.Enable(1024)
	defer rec.Disable()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	n := &Node{
		opt: Options{BootTimeout: 200 * time.Millisecond},
		ctrl: &ctrlPlane{durable: true, addr: addr, events: make(chan ctrlMsg, 1),
			allDone: make(chan struct{}), closed: make(chan struct{})},
		lastRound: 3,
	}
	err = n.rollback(context.Background(), ctrlMsg{Type: "ctrldown"})
	if err == nil || !strings.Contains(err.Error(), "cluster: rollback round 3 (phase reconnect): ") {
		t.Fatalf("err = %v, want it to name round 3 and the reconnect phase", err)
	}
	for _, ev := range rec.Events() {
		if ev.Type == flight.EvAnomaly && ev.Arg == flight.ReasonRollback {
			return
		}
	}
	t.Fatal("no rollback-failed anomaly recorded")
}
