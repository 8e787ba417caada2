package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/transport"
	"nab/internal/wal"
)

// Options tunes one process's cluster endpoint.
type Options struct {
	// BootTimeout bounds how long link and control dials wait for peer
	// processes to come up. Default 20s.
	BootTimeout time.Duration
	// Reservation supplies held listeners from ReserveAddrs: the bootstrap
	// takes this process's mesh endpoint (and, on the coordinator, the
	// control-plane endpoint) from it instead of re-binding the configured
	// addresses, closing the release-then-rebind race.
	Reservation *Reservation
	// Join marks a blank-WAL process entering a live cluster: instead of
	// replaying history it announces a join round, installs the snapshot
	// that F+1 peers pushed byte-identically over the control plane, and
	// enters the stream at that snapshot's boundary, re-executing the
	// instances above it live. Requires a Recovery (the transferred state
	// is persisted so the process's own restarts recover) over a genuinely
	// blank WAL: one with a Base or commits rejoins instead.
	Join bool
}

// Recovery is a durable process's write-ahead-log plumbing, built by the
// session layer from its WAL. Passing one to StartContext (an empty one
// for a blank log) switches the process to crash-recovery mode: mesh
// links heal (transport.PeerOptions.Reconnect), the control plane carries
// the rejoin protocol, and Stream supervises rollback rounds — a peer
// process killed and restarted re-enters the cluster mid-stream with the
// committed sequence staying byte-identical to the uninterrupted run. A
// nil Recovery runs without a log. Every process of the cluster must
// agree on which of the two it runs.
type Recovery struct {
	// Committed is the committed-instance prefix above Base replayed from
	// the WAL. The runtime is restored to it before streaming.
	Committed []*core.InstanceResult
	// Inputs maps instance numbers to submitted payloads recovered from
	// the WAL — needed when a rollback round rewinds below this process's
	// own watermark, so it can re-execute instances it committed before
	// the crash.
	Inputs map[int][]byte
	// Base is the snapshot the WAL is anchored on (the zero state with
	// DigestSeed for a full-history log): this process's floor, with its
	// launch epoch and commit-chain digest. Rollbacks below the floor are
	// impossible by the floor-safety rule — every process fsyncs its WAL
	// before acknowledging a rewind, so no later round can target a
	// watermark below any persisted floor.
	//
	// A non-nil Base marks a process restarting over an existing WAL: it
	// announces a rejoin round so the (possibly stalled) cluster rolls
	// back and re-drives the frames it missed — even if the previous
	// incarnation crashed before its first commit became durable, since
	// its peers may already be stalled waiting for its frames. Nil means
	// a blank WAL.
	Base *wal.Snapshot
	// PersistFloor writes a snapshot record into this process's WAL and
	// compacts behind it — called with a join base and after rollback
	// rounds establish a new floor.
	PersistFloor func(wal.Snapshot) error
	// SyncWAL fsyncs the WAL; called before a rewind ack so every
	// process's durable watermark provably reaches the round's floor.
	SyncWAL func() error
}

// rejoinLinger bounds how long a durable process that finished its
// workload stays parked at the shutdown barrier, mesh intact, ready to
// serve a rollback for a peer that crashed near the end.
const rejoinLinger = 2 * time.Minute

// Node is one process's membership in a cluster: the transport endpoint,
// the control-plane endpoint and the (partial) pipelined runtime driving
// the locally hosted topology nodes.
type Node struct {
	cfg    *Config
	opt    Options
	rec    *Recovery // nil without a WAL; see Recovery
	locals []graph.NodeID
	tr     *transport.Peer
	ctrl   *ctrlPlane
	rt     *runtime.Runtime

	// Crash-recovery supervision state (rec != nil); all touched only
	// by the single Stream call.
	epoch         uint64                 // launch epoch agreed by the last rollback
	lastRound     int                    // last rollback round this process acked
	rejoinPending bool                   // announce a rejoin when the supervisor starts
	committed     []*core.InstanceResult // committed results above the floor, recovery + live
	inputs        *inputBuffer           // retained submissions for re-execution

	// Snapshot state-sync bookkeeping (rec != nil). base is the floor
	// snapshot everything below is folded into; committed[i] holds
	// instance base.K+1+i and chain[i] the commit-chain digest at it —
	// identical across honest processes, the substance of join-round
	// cross-validation.
	blank   bool // a joiner that has not completed its join round yet
	lead    int64
	base    wal.Snapshot
	chain   []uint64
	encBuf  []byte      // AppendCommitFold scratch
	pending *joinResult // transferred state awaiting the rewind

	// Re-execution tripwire armed by a join rewind: once the chain reaches
	// checkK, its digest must equal checkDigest — the f+1 quorum's value at
	// the pre-join watermark. Zero checkK means disarmed.
	checkK      int
	checkDigest uint64

	// joinBegan stamps a blank joiner's announce, so the resume that
	// completes its first round can observe the announce→resume join
	// duration. Zero for plain rejoins (applyRewind clears blank before
	// the resume lands, so the flag alone cannot carry this).
	joinBegan time.Time

	// testServeTamper lets in-package tests play a Byzantine snapshot
	// server: it mutates the honest state message before it is sent (see
	// stateMsg).
	testServeTamper func(*ctrlMsg)

	stopOnce sync.Once
	stop     chan struct{} // releases the context watchdog
}

// Start brings this process into the cluster as the host of node id (and
// every node colocated at id's address): it opens the mesh listener,
// joins the control plane (serving it if id's process hosts the source),
// and starts the partial runtime. Peers may be started in any order;
// link dials retry until the mesh is up. Start is StartContext with a
// background context.
func Start(cfg *Config, id graph.NodeID, opt Options, rec *Recovery) (*Node, error) {
	return StartContext(context.Background(), cfg, id, opt, rec)
}

// StartContext is Start bounded by ctx: canceling it aborts the boot-time
// dial retries (a follower waiting for the coordinator to come up) and
// makes the control plane's pending schedule waits fail, so a canceled
// session tears down instead of waiting out BootTimeout. rec carries the
// WAL of a durable process (nil without one). Invalid options fail before
// any endpoint opens, so a reserved listener stays with the Reservation.
func StartContext(ctx context.Context, cfg *Config, id graph.NodeID, opt Options, rec *Recovery) (*Node, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Join && rec == nil {
		return nil, fmt.Errorf("cluster: Join requires a Recovery")
	}
	if opt.Join && (rec.Base != nil || len(rec.Committed) > 0) {
		return nil, fmt.Errorf("cluster: Join requires a blank WAL; a process with history rejoins with Recover")
	}
	durable := rec != nil
	spec, ok := cfg.Spec(id)
	if !ok {
		return nil, fmt.Errorf("cluster: node %d has no spec", id)
	}
	locals := cfg.Colocated(id)
	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		return nil, err
	}

	popt := transport.PeerOptions{
		DialTimeout: opt.BootTimeout,
		Reconnect:   durable,
		Chaos:       cfg.Chaos,
	}
	if opt.Reservation != nil {
		popt.Listener = opt.Reservation.Take(spec.Addr)
	}
	tr, err := transport.NewPeer(coreCfg.Graph, locals, cfg.Addrs(), spec.Addr, popt)
	if err != nil {
		return nil, err
	}

	// The source's host coordinates: it can decode every schedule
	// decision itself (the source never leaves the instance graph while
	// instances still run phases) and streams them to followers.
	isCoord := false
	for _, v := range locals {
		if v == cfg.Source {
			isCoord = true
		}
	}
	procs := map[string]bool{}
	for _, ns := range cfg.Nodes {
		procs[ns.Addr] = true
	}
	var ctrl *ctrlPlane
	if isCoord {
		var cl net.Listener
		if opt.Reservation != nil {
			cl = opt.Reservation.Take(cfg.CtrlAddr)
		}
		ctrl, err = newCoordinator(cfg.CtrlAddr, len(procs), cl, durable, cfg.SnapshotInterval)
	} else {
		ctrl, err = newFollower(ctx, cfg.CtrlAddr, opt.BootTimeout, durable)
	}
	if err != nil {
		tr.Close()
		return nil, err
	}

	rt, err := runtime.New(runtime.Config{
		Config:     coreCfg,
		Window:     cfg.Window,
		Transport:  tr,
		LocalNodes: locals,
		Plane:      ctrl,
	})
	if err != nil {
		ctrl.Close()
		return nil, err // runtime owns (and closed) the transport
	}
	n := &Node{
		cfg: cfg, opt: opt, rec: rec, locals: locals, tr: tr, ctrl: ctrl, rt: rt,
		stop: make(chan struct{}),
	}
	if durable {
		n.lead = int64(cfg.Lead(spec.Addr))
		n.base.Digest = wal.DigestSeed
		if rec.Base != nil {
			n.base = *rec.Base
			n.epoch = n.base.Epoch
		}
		for _, ir := range rec.Committed {
			if ir.K != n.watermark()+1 {
				ctrl.Close()
				rt.Close()
				return nil, fmt.Errorf("cluster: recovered commit %d does not continue floor %d", ir.K, n.base.K)
			}
			n.extend(ir)
		}
		n.inputs = newInputBuffer(rec.Inputs)
		if err := rt.RestoreSnapshot(0, n.base.SnapshotState, n.committed); err != nil {
			ctrl.Close()
			rt.Close()
			return nil, err
		}
		// A restarting process announces its rejoin from the stream
		// supervisor (streamDurable), where a control link that dies under
		// the announcement — e.g. a dial that landed in the dead
		// coordinator's lingering accept backlog and gets reset on first
		// write — is retried like any other control-plane loss. A blank
		// joiner announces the same way; blankness rides its sync ack.
		n.blank = opt.Join
		n.rejoinPending = rec.Base != nil || opt.Join
	}
	// The watchdog force-closes the endpoints on cancellation, so executions
	// blocked in link dials (a peer process that never came up) or in
	// sends onto a full link queue abort promptly instead of waiting out
	// their timeouts.
	go func() {
		select {
		case <-ctx.Done():
			n.Close()
		case <-n.stop:
		}
	}()
	return n, nil
}

// Locals returns the topology nodes this process hosts.
func (n *Node) Locals() []graph.NodeID { return append([]graph.NodeID(nil), n.locals...) }

// Runtime exposes the underlying partial runtime (e.g. for dispute-set
// introspection or input validation before a Stream).
func (n *Node) Runtime() *runtime.Runtime { return n.rt }

// Stream executes submissions pulled from subs until the channel closes
// (see runtime.RunStream: a bounded channel gives backpressure; every
// process of the cluster must feed the same sequence). After the local
// commits it holds the process at the cluster's shutdown barrier, keeping
// sockets open while stragglers flush their final frames. Canceling ctx
// aborts in-flight executions — mid-dispute included — and skips the
// lingering barrier wait.
func (n *Node) Stream(ctx context.Context, subs <-chan []byte, commit func(*core.InstanceResult) error) (*runtime.Result, error) {
	if n.rec != nil {
		return n.streamDurable(ctx, subs, commit)
	}
	res, err := n.rt.RunStream(ctx, subs, commit)
	timeout := 30 * time.Second
	if err != nil {
		// Still announce done (peers should not wait for a failed or
		// canceled process), but do not linger.
		timeout = time.Second
	}
	n.ctrl.barrier(ctx, timeout)
	return res, err
}

// Dropped reports inbound frames the transport rejected as violating
// their handshake pinning.
func (n *Node) Dropped() int64 { return n.tr.Dropped() }

// Close leaves the cluster: shuts the runtime (and its transport) and
// the control plane down. Idempotent.
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	err := n.rt.Close()
	n.ctrl.Close()
	return err
}
