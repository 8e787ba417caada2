package nab_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"nab"
)

// chaosScenario is the acceptance scenario from the chaos PR: latency +
// jitter + a reorder window on every link, plus an asymmetric partition
// that heals mid-run — composed with a Byzantine adversary. The protocol
// assumes an asynchronous-but-reliable network, so no amount of this may
// change what commits: every engine must stay byte-identical to the
// chaos-free lockstep oracle.
func chaosScenario(seed int64) *nab.ChaosConfig {
	return &nab.ChaosConfig{
		Seed: seed,
		Default: nab.ChaosLink{
			Latency:     nab.ChaosDuration(time.Millisecond),
			Jitter:      nab.ChaosDuration(4 * time.Millisecond),
			ReorderProb: 0.35,
		},
		Partitions: []nab.ChaosPartition{
			// Directed 2->3 severed through the early run; 3->2 stays up.
			{From: []nab.NodeID{2}, To: []nab.NodeID{3},
				Start: nab.ChaosDuration(50 * time.Millisecond),
				Heal:  nab.ChaosDuration(900 * time.Millisecond)},
		},
	}
}

// TestSessionChaosDifferential runs the same Byzantine workload on the
// pipelined engine over the chaos-wrapped in-process bus and over the
// chaos-wrapped TCP substrate, asserting commits and dispute sets match
// the lockstep oracle exactly. This is the per-engine pin of the ordering
// audit: the runtime only relies on per-(link, instance) FIFO, which the
// chaos layer preserves while shuffling everything else.
func TestSessionChaosDifferential(t *testing.T) {
	g := nab.CompleteGraph(4, 2)
	mkCfg := func() nab.Config {
		return nab.Config{
			Graph: g, Source: 1, F: 1, LenBytes: 16, Seed: 7,
			Adversaries: map[nab.NodeID]nab.Adversary{3: nab.BlockFlipperAdversary()},
		}
	}
	payloads := mkPayloads(5, 16)
	ctx := context.Background()

	lockSess, err := nab.Open(ctx, mkCfg(), nab.WithLockstep())
	if err != nil {
		t.Fatal(err)
	}
	defer lockSess.Close()
	want, wantDisputes := feedAndCollect(t, lockSess, payloads)

	compare := func(t *testing.T, got []*nab.InstanceResult, disputes string) {
		t.Helper()
		if disputes != wantDisputes {
			t.Errorf("dispute set %q, want %q", disputes, wantDisputes)
		}
		if len(got) != len(want) {
			t.Fatalf("committed %d instances, want %d", len(got), len(want))
		}
		for i, w := range want {
			if gr := got[i]; !reflect.DeepEqual(gr, w) {
				t.Errorf("instance %d: %+v, want %+v", i+1, gr, w)
			}
		}
	}

	t.Run("PipelinedChan", func(t *testing.T) {
		sess, err := nab.Open(ctx, mkCfg(), nab.WithWindow(4),
			nab.WithTransportOptions(nab.TransportOptions{Chaos: chaosScenario(1)}))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		got, disputes := feedAndCollect(t, sess, payloads)
		compare(t, got, disputes)
	})

	t.Run("PipelinedTCP", func(t *testing.T) {
		if testing.Short() {
			t.Skip("real sockets under partition stall")
		}
		tr, err := nab.NewTCPTransportOpts(g, nab.TCPTransportOptions{Chaos: chaosScenario(2)})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := nab.Open(ctx, mkCfg(), nab.WithWindow(4), nab.WithTransport(tr))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		got, disputes := feedAndCollect(t, sess, payloads)
		compare(t, got, disputes)
	})

	t.Run("RejectsBadConfig", func(t *testing.T) {
		bad := &nab.ChaosConfig{Default: nab.ChaosLink{ReorderProb: 2}}
		if _, err := nab.Open(ctx, mkCfg(), nab.WithWindow(2),
			nab.WithTransportOptions(nab.TransportOptions{Chaos: bad})); err == nil {
			t.Error("invalid chaos config accepted by Open")
		}
	})
}

// TestSessionChaosCluster is the multi-process cell: the chaos spec rides
// in cluster.json (every process injects the same seeded physics into its
// mesh links) while the control plane stays polite. Commits and disputes
// must match the chaos-free lockstep oracle.
func TestSessionChaosCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-session cluster under chaos")
	}
	g := nab.CompleteGraph(4, 2)
	const procs = 3
	ccfg, rsv := sessionDiffConfig(t, g, 1, 1, procs, map[nab.NodeID]string{3: "flip"})
	ccfg.Chaos = chaosScenario(3)
	if err := ccfg.Validate(); err != nil {
		t.Fatal(err)
	}
	payloads := mkPayloads(4, ccfg.LenBytes)
	ctx := context.Background()

	coreCfg, err := ccfg.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	lockSess, err := nab.Open(ctx, coreCfg, nab.WithLockstep())
	if err != nil {
		t.Fatal(err)
	}
	defer lockSess.Close()
	want, wantDisputes := feedAndCollect(t, lockSess, payloads)

	checkClusterSessions(t, runClusterSessions(t, ccfg, rsv, payloads), want, wantDisputes)
}
