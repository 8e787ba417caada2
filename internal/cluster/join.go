package cluster

import (
	"fmt"
	"slices"

	"nab/internal/core"
	"nab/internal/flight"
	"nab/internal/wal"
)

// This file is the join round's state transfer: the machinery that brings
// a blank-WAL process into a live cluster without replaying the whole
// committed history.
//
// A blank process announces an ordinary rejoin, but its sync ack carries
// Blank, so the coordinator inserts a "fetch" phase between sync and
// rewind (see ctrlPlane.advanceLocked). During that phase every process is
// parked inside its rollback round — streams canceled, sockets open — so
// non-blank processes double as snapshot servers. On the fetch each
// eligible server pushes one "state" message, relayed by the coordinator
// like every other control message: its canonical snapshot bytes at the
// boundary J and its commit-chain digest at the pre-join watermark m. The
// coordinator stamps every relayed state with the lead id its sender's
// connection is pinned to, so each server casts one vote.
//
// The joiner counts the votes keyed on the (snapshot bytes, digest) pair
// itself. At f+1 byte-identical copies it installs the snapshot: with at
// most f Byzantine processes a winning vote always contains an honest
// server, so the agreed state is the honest state. Nothing between J and m
// is transferred. A join round rewinds the whole cluster to J (not m), so
// the joiner re-executes (J, m] live — that re-drive re-emits any commits
// a dead incarnation's local outputs took with it — and the agreed digest
// at m is a tripwire: when the joiner's own re-executed chain reaches m it
// must land on exactly that digest, extending the f+1 cross-validation
// over everything it replays.
//
// The transferred snapshot is installed at the round's rewind (the
// joiner's floor becomes J) and persisted into its WAL at resume, when
// every process has provably fsynced past the target — so no future
// rollback can strand an instance below any process's log.

// joinResult is the state a blank process fetched during a join round,
// held until the rewind installs it as the process's floor.
type joinResult struct {
	base    wal.Snapshot // the snapshot at the boundary J, installed as the floor
	m       int          // the round's pre-join minimum watermark
	mDigest uint64       // agreed chain digest at m, checked once re-execution reaches it
}

// watermark is the highest instance this process committed.
func (n *Node) watermark() int { return n.base.K + len(n.committed) }

// digestAt returns the commit-chain digest at watermark m in
// [floor, watermark].
func (n *Node) digestAt(m int) uint64 {
	if m == n.base.K {
		return n.base.Digest
	}
	return n.chain[m-n.base.K-1]
}

// extend appends the next committed instance and chains its fold
// projection — the cheap per-commit work that makes this process a valid
// snapshot server for any future join round.
func (n *Node) extend(ir *core.InstanceResult) {
	n.encBuf = wal.AppendCommitFold(n.encBuf[:0], ir)
	n.chain = append(n.chain, wal.Chain(n.digestAt(n.watermark()), n.encBuf))
	n.committed = append(n.committed, ir)
}

// snapshot returns the snapshot this process serves for watermark m in
// [floor, watermark]: its floor and committed prefix folded to m, with
// the commit-chain digest at m and Epoch zero — the bytes a join round's
// state message carries, identical on every honest process. Durable mode
// only; call it between streams, never while Stream runs.
func (n *Node) snapshot(m int) (wal.Snapshot, error) {
	if m < n.base.K || m > n.watermark() {
		return wal.Snapshot{}, fmt.Errorf("cluster: snapshot watermark %d outside [floor %d, watermark %d]", m, n.base.K, n.watermark())
	}
	ds, err := n.rt.Protocol().RestoreState(n.base.SnapshotState, n.committed[:m-n.base.K])
	if err != nil {
		return wal.Snapshot{}, err
	}
	return wal.Snapshot{SnapshotState: ds.State(), Digest: n.digestAt(m)}, nil
}

// stateMsg builds this process's vote for a fetch it serves: one "state"
// message carrying the canonical snapshot at the boundary and the chain
// digest at the pre-join watermark, or nil when the process is not among
// the fetch's servers. The snapshot is encoded with Epoch 0: epochs are
// per-process until the round's rewind agrees on a new one, and the bytes
// must be identical on every honest server.
func (n *Node) stateMsg(fetch ctrlMsg) (*ctrlMsg, error) {
	if !slices.Contains(fetch.Servers, n.lead) {
		return nil, nil
	}
	j, m := fetch.K, fetch.M
	if j > m || m > n.watermark() {
		return nil, fmt.Errorf("cluster: fetch boundary %d and target %d outside [floor %d, watermark %d]", j, m, n.base.K, n.watermark())
	}
	snap, err := n.snapshot(j)
	if err != nil {
		return nil, err
	}
	msg := &ctrlMsg{Type: "state", Round: fetch.Round, Peer: n.lead, Data: wal.AppendSnapshot(nil, snap), Digest: n.digestAt(m)}
	if n.testServeTamper != nil {
		// Test hook: a Byzantine snapshot server.
		n.testServeTamper(msg)
	}
	recordRound(flight.EvRejoinRound, flight.RoundFetch, fetch.Round, j)
	return msg, nil
}

// stateVote is one server's pushed state, compared byte for byte.
type stateVote struct {
	snap   string // canonical snapshot bytes at J
	digest uint64 // commit-chain digest at m
}

// votes is a blank joiner's tally for one fetch phase: one vote per
// eligible server.
type votes struct {
	fetch   ctrlMsg
	need    int
	unvoted map[int64]bool // eligible servers that have not voted yet
	count   map[stateVote]int
	cast    int
}

func newVotes(fetch ctrlMsg, need int) *votes {
	v := &votes{fetch: fetch, need: need, unvoted: map[int64]bool{}, count: map[stateVote]int{}}
	for _, s := range fetch.Servers {
		v.unvoted[s] = true
	}
	return v
}

// add counts one relayed state: the first from each eligible server, the
// rest ignored. It returns the state to install once need votes match,
// and an error when the matching snapshot does not decode at the boundary
// or when every server has voted and no pair reached need.
func (v *votes) add(m ctrlMsg) (*joinResult, error) {
	if !v.unvoted[m.Peer] {
		return nil, nil
	}
	delete(v.unvoted, m.Peer)
	v.cast++
	key := stateVote{string(m.Data), m.Digest}
	v.count[key]++
	if v.count[key] < v.need {
		if len(v.unvoted) == 0 {
			return nil, fmt.Errorf("cluster: no snapshot reached %d matching copies across %d servers", v.need, v.cast)
		}
		return nil, nil
	}
	snap, err := wal.DecodeSnapshot(m.Data)
	if err != nil {
		return nil, fmt.Errorf("cluster: quorum snapshot: %w", err)
	}
	if snap.K != v.fetch.K {
		return nil, fmt.Errorf("cluster: quorum snapshot at %d, want %d", snap.K, v.fetch.K)
	}
	return &joinResult{base: snap, m: v.fetch.M, mDigest: m.Digest}, nil
}

// joinFetch runs the blank process's side of one fetch phase: count the
// servers' relayed state votes until f+1 match, leave the agreed state in
// n.pending for the rewind to install, and ack "joined". A non-nil abort
// event means the round was restarted (or the control link died) under it.
func (n *Node) joinFetch(round int, fetch ctrlMsg, next func() (ctrlMsg, error)) (*ctrlMsg, error) {
	need := n.cfg.F + 1
	if len(fetch.Servers) < need {
		// With fewer than f+1 eligible servers, every vote could be
		// Byzantine and a "quorum" would prove nothing — refusing the join
		// is the only safe answer under the fault model. The operator must
		// bring more non-blank processes up (or lower f) before a blank
		// node can be trusted with transferred state.
		mJoinQuorumShort.Inc()
		return nil, fmt.Errorf("cluster: join needs %d eligible snapshot servers to cross-validate against up to %d Byzantine processes; the round offers %d", need, n.cfg.F, len(fetch.Servers))
	}
	v := newVotes(fetch, need)
	for {
		ev, err := next()
		if err != nil {
			return nil, err
		}
		if ev.Type == "sync" || ev.Type == "ctrldown" {
			return &ev, nil
		}
		if ev.Type != "state" || ev.Round != round {
			continue
		}
		res, err := v.add(ev)
		if err != nil {
			return nil, err
		}
		if res == nil {
			continue
		}
		n.pending = res
		mJoinRounds.Inc()
		mJoinServerRejects.Add(int64(v.cast - need))
		if err := n.ctrl.up(ctrlMsg{Type: "joined", Round: round, Peer: n.lead}); err != nil {
			ev := n.ctrl.ctrldownNow()
			return &ev, nil
		}
		return nil, nil
	}
}

// applyRewind rewinds this process to the round's floor m on the agreed
// epoch: a blank joiner first installs its fetched state as its floor,
// then every durable process restores its runtime, prunes its input
// retention, re-pins the mesh and fsyncs its WAL — the fsync is the floor
// safety rule: when the round completes, the whole cluster is durably at
// or past m, so a floor snapshot persisted at resume can never strand a
// future rollback below someone's log.
func (n *Node) applyRewind(m int, epoch uint64) error {
	n.epoch = epoch
	if n.blank {
		if n.pending != nil {
			if n.pending.base.K != m {
				return fmt.Errorf("cluster: rewind to %d but the join fetch anchored at %d", m, n.pending.base.K)
			}
			n.base = n.pending.base
			n.chain, n.committed = n.chain[:0], nil
			if n.pending.m > n.base.K {
				// Arm the re-execution tripwire: when this process's own
				// chain reaches the pre-join watermark, it must land on the
				// quorum-agreed digest.
				n.checkK, n.checkDigest = n.pending.m, n.pending.mDigest
			}
		} else if m != 0 {
			return fmt.Errorf("cluster: blank process rewound to %d with no fetched state", m)
		}
		n.blank = false
		n.pending = nil
	}
	if m < n.base.K || m > n.watermark() {
		return fmt.Errorf("cluster: rewind to %d outside [floor %d, watermark %d]", m, n.base.K, n.watermark())
	}
	if err := n.rt.RestoreSnapshot(n.epoch<<32, n.base.SnapshotState, n.committed[:m-n.base.K]); err != nil {
		return err
	}
	n.inputs.prune(m)
	// Re-pin every outbound mesh link before acknowledging: a connection
	// to the restarted peer can look healthy until the first post-resume
	// write discovers the dead socket.
	if err := n.tr.Reestablish(); err != nil {
		return fmt.Errorf("cluster: re-pin mesh links: %w", err)
	}
	if n.rec.SyncWAL != nil {
		if err := n.rec.SyncWAL(); err != nil {
			return fmt.Errorf("cluster: wal sync before rewound ack: %w", err)
		}
	}
	return nil
}

// persistFloorAt writes the round's floor snapshot into this process's
// WAL (compacting the log behind it) once the round has resumed — only
// then has every process provably fsynced past m.
func (n *Node) persistFloorAt(m int) error {
	if n.rec.PersistFloor == nil {
		return nil
	}
	s, err := n.snapshot(m)
	if err != nil {
		return err
	}
	s.Epoch = n.epoch
	if err := n.rec.PersistFloor(s); err != nil {
		return fmt.Errorf("cluster: persist floor snapshot: %w", err)
	}
	mFloorSnapshots.Inc()
	return nil
}
