package nab

import (
	"fmt"
	"sync"
	"time"

	"nab/internal/core"
	"nab/internal/obs"
	"nab/internal/wal"
)

// recoveryLog narrates WAL replay at Open — how much of a previous
// incarnation survived and where the stream resumes.
var recoveryLog = obs.New("recovery")

// durabilityOptions configures the session WAL.
type durabilityOptions struct {
	dir       string
	resume    bool
	snapEvery int
	// segmentBytes overrides the WAL segment size — internal tests use a
	// tiny value to force rotation and cross-segment compaction.
	segmentBytes int64
}

// WithDurability persists the session to a write-ahead log in dir: every
// accepted submission is fsynced (group-committed) before Submit
// returns, and every commit is appended before it is delivered. A
// process killed mid-stream restarts with Recover(dir) and resumes
// exactly where the log ends. Opening a fresh session over a non-empty
// log is refused — that is what Recover is for.
func WithDurability(dir string) SessionOption {
	return func(o *sessionOptions) {
		if o.durability == nil {
			o.durability = &durabilityOptions{}
		}
		o.durability.dir = dir
		o.durability.resume = false
	}
}

// Recover opens the session over an existing WAL in dir (or a fresh one,
// making Recover a restart-safe default): the engine is restored to the
// logged committed prefix — directly from the latest snapshot record
// when one anchors the log, with no per-instance replay below it — the
// logged-but-uncommitted submissions re-enter the stream automatically,
// and every logged commit above the snapshot is re-delivered on Commits
// with Replayed set before live traffic starts. For WithCluster sessions
// the restart additionally runs the rejoin protocol: the process re-pins
// its mesh links, the cluster rolls back to its common committed
// watermark, and the stream resumes mid-flight — byte-identical to the
// uninterrupted run.
func Recover(dir string) SessionOption {
	return func(o *sessionOptions) {
		if o.durability == nil {
			o.durability = &durabilityOptions{}
		}
		o.durability.dir = dir
		o.durability.resume = true
	}
}

// WithSnapshotInterval makes a durable single-process session write a
// full engine-state snapshot every n commits and compact the log's
// segments behind it, bounding both the on-disk log size and recovery
// work to the live suffix. n = 0 keeps the default, 256; Open rejects a
// negative n. Open also rejects the option on a WithCluster session: a
// rejoin rollback may need any instance above the cluster-wide floor, so
// cluster logs snapshot (and compact) only at rollback floors, where the
// whole cluster is provably past the watermark.
func WithSnapshotInterval(n int) SessionOption {
	return func(o *sessionOptions) {
		if o.durability == nil {
			o.durability = &durabilityOptions{}
		}
		o.durability.snapEvery = n
	}
}

const defaultSnapshotEvery = 256

// SnapshotInfo describes one written snapshot record.
type SnapshotInfo struct {
	// K is the commit watermark the snapshot captured.
	K int
	// Gen is the dispute-state generation at K.
	Gen int
	// Digest is the committed-sequence chain digest at K (wal.Chain),
	// the value a cluster log holds at the same watermark.
	Digest uint64
}

// sessionLog couples the WAL with the session's append state: the
// encoding scratch, the submit/commit ordering handshake, and the
// dispute-state mirror snapshots serialize.
type sessionLog struct {
	log *wal.Log

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte
	maxSubmit int
	closed    bool
	failed    error // first WAL failure; releases logCommit's submit wait

	// meta is the session's identity record, re-appended ahead of every
	// snapshot so compaction can never drop the log's last copy.
	meta wal.Meta

	// Snapshot mirror of the engine's dispute state (single-process;
	// cluster processes mirror in the cluster node, where rollbacks are
	// visible): folded by the engine's own Protocol, with the commit-chain
	// digest at its watermark. Nil on cluster sessions, and until follow
	// seeds it.
	snapEvery int
	proto     *core.Protocol
	mirror    *core.DisputeState
	digest    uint64
	sinceSnap int
	snapCount int64
	// subSeg tracks the segment of each not-yet-committed submission:
	// compaction must never drop a segment holding a submission the
	// engine still has to execute.
	subSeg map[int]uint64
	// commitSeg tracks the segment of each commit record not yet covered
	// by a snapshot: a floor snapshot may trail the committed watermark
	// (cluster rollback floors), and compacting away a segment holding
	// commits above the floor would orphan the (floor, watermark] range
	// and leave the log unrecoverable.
	commitSeg map[int]uint64
}

func newSessionLog(log *wal.Log, meta wal.Meta, snapEvery int) *sessionLog {
	sl := &sessionLog{
		log: log, meta: meta, snapEvery: snapEvery,
		subSeg:    map[int]uint64{},
		commitSeg: map[int]uint64{},
	}
	if sl.snapEvery == 0 {
		sl.snapEvery = defaultSnapshotEvery
	}
	sl.cond = sync.NewCond(&sl.mu)
	return sl
}

// follow seeds the snapshot mirror of a single-process session at the
// recovered state: restored by proto, the engine's own protocol, which
// folds every later commit into it too.
func (sl *sessionLog) follow(proto *core.Protocol, rec *recovery) error {
	ds, err := proto.RestoreState(rec.base.SnapshotState, rec.foldList)
	if err != nil {
		return err
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.proto, sl.mirror, sl.digest = proto, ds, rec.base.Digest
	for _, ir := range rec.foldList {
		sl.chain(ir)
	}
	return nil
}

// chain advances the mirror's digest over ir's fold projection. Callers
// hold sl.mu.
func (sl *sessionLog) chain(ir *core.InstanceResult) {
	sl.buf = wal.AppendCommitFold(sl.buf[:0], ir)
	sl.digest = wal.Chain(sl.digest, sl.buf)
}

// appendSubmit frames one accepted submission into the log buffer —
// called under the session's submit lock so record order matches
// sequence order. Durability follows via syncSubmits, OUTSIDE that lock,
// so concurrent submitters share fsyncs (group commit).
func (sl *sessionLog) appendSubmit(k int, payload []byte) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.buf = wal.AppendSubmit(sl.buf[:0], k, payload)
	pos, err := sl.log.Append(wal.TypeSubmit, sl.buf)
	if err != nil {
		sl.fail(err)
		return err
	}
	if k > sl.maxSubmit {
		sl.maxSubmit = k
		sl.subSeg[k] = pos.Seg
		sl.cond.Broadcast()
	}
	return nil
}

// syncSubmits makes every appended record durable (group-committed).
func (sl *sessionLog) syncSubmits() error {
	if err := sl.log.Sync(); err != nil {
		sl.mu.Lock()
		sl.fail(err)
		sl.mu.Unlock()
		return err
	}
	return nil
}

// fail latches the first WAL failure and wakes logCommit's submit-order
// wait — the engine may already hold a payload whose submit record never
// landed, and that commit must error out instead of waiting forever.
// Callers hold sl.mu.
func (sl *sessionLog) fail(err error) {
	if sl.failed == nil {
		sl.failed = err
	}
	sl.cond.Broadcast()
}

// logCommit appends one committed instance ahead of its delivery.
// Durability rides the log's background sync — a crash between delivery
// and fsync re-executes the instance on recovery, which is idempotent by
// determinism. The append waits (briefly) for the instance's submit
// record: a commit record preceding its own submission would leave a
// recovered cluster log unable to re-feed the instance after a rollback.
func (sl *sessionLog) logCommit(ir *core.InstanceResult) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for sl.maxSubmit < ir.K && !sl.closed && sl.failed == nil {
		sl.cond.Wait()
	}
	if sl.failed != nil {
		return sl.failed
	}
	sl.buf = wal.AppendCommit(sl.buf[:0], ir)
	pos, err := sl.log.Append(wal.TypeCommit, sl.buf)
	if err != nil {
		return err
	}
	delete(sl.subSeg, ir.K)
	sl.commitSeg[ir.K] = pos.Seg
	if sl.mirror == nil {
		return nil
	}
	// Mirror the engine's fold so a snapshot can serialize the dispute
	// state without reaching into the (busy) engine.
	if err := sl.proto.Fold(sl.mirror, ir); err != nil {
		return err
	}
	sl.chain(ir)
	sl.sinceSnap++
	if sl.sinceSnap < sl.snapEvery {
		return nil
	}
	sl.sinceSnap = 0
	_, err = sl.writeSnapshotLocked(sl.mirrorSnapshot())
	return err
}

// mirrorSnapshot captures the mirror's state as a snapshot record.
// Callers hold sl.mu and own a non-nil mirror.
func (sl *sessionLog) mirrorSnapshot() wal.Snapshot {
	return wal.Snapshot{SnapshotState: sl.mirror.State(), Digest: sl.digest}
}

// writeSnapshotLocked appends a meta + snapshot pair, makes both durable
// and compacts the segments behind them (bounded by uncommitted
// submissions). Callers hold sl.mu.
func (sl *sessionLog) writeSnapshotLocked(s wal.Snapshot) (SnapshotInfo, error) {
	// Re-assert the session identity ahead of the snapshot: the kept
	// tail must still carry a meta record once older segments (including
	// the original one) are compacted away.
	sl.buf = wal.AppendMeta(sl.buf[:0], sl.meta)
	pos, err := sl.log.Append(wal.TypeMeta, sl.buf)
	if err != nil {
		return SnapshotInfo{}, err
	}
	sl.buf = wal.AppendSnapshot(sl.buf[:0], s)
	if _, err := sl.log.Append(wal.TypeSnapshot, sl.buf); err != nil {
		return SnapshotInfo{}, err
	}
	if err := sl.log.Sync(); err != nil {
		return SnapshotInfo{}, err
	}
	// Never compact past a submission the engine has yet to execute —
	// recovery must be able to re-feed every uncommitted instance.
	keep := pos
	for _, seg := range sl.subSeg {
		if seg < keep.Seg {
			keep.Seg = seg
		}
	}
	// Nor past a commit above the snapshot's watermark: a floor snapshot
	// trailing the committed watermark (cluster rollback floors) still
	// needs the (floor, watermark] commits to anchor recovery's fold.
	for k, seg := range sl.commitSeg {
		if k <= s.K {
			delete(sl.commitSeg, k)
		} else if seg < keep.Seg {
			keep.Seg = seg
		}
	}
	if err := sl.log.Compact(keep); err != nil {
		return SnapshotInfo{}, err
	}
	sl.snapCount++
	return SnapshotInfo{K: s.K, Gen: s.Gen, Digest: s.Digest}, nil
}

// snapshotNow forces a snapshot of the mirror's current state —
// Session.Snapshot's backend (single-process sessions only).
func (sl *sessionLog) snapshotNow() (SnapshotInfo, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.failed != nil {
		return SnapshotInfo{}, sl.failed
	}
	if sl.mirror == nil {
		return SnapshotInfo{}, fmt.Errorf("nab: Snapshot: cluster sessions snapshot at rollback floors, not on demand")
	}
	sl.sinceSnap = 0
	return sl.writeSnapshotLocked(sl.mirrorSnapshot())
}

// persistFloor writes a cluster-provided snapshot record (a join base or
// a rollback-floor capture) and compacts behind it. The snapshot content
// comes from the cluster node, which tracks state across rollbacks; the
// session log only frames and compacts.
func (sl *sessionLog) persistFloor(s wal.Snapshot) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.failed != nil {
		return sl.failed
	}
	// Submissions at or below the floor can never be re-executed again;
	// dropping them from the compaction ledger is what lets the log shrink
	// past them (a joiner's pre-floor backlog would otherwise pin its
	// first segment forever).
	for k := range sl.subSeg {
		if k <= s.K {
			delete(sl.subSeg, k)
		}
	}
	_, err := sl.writeSnapshotLocked(s)
	return err
}

// snapshots reports how many snapshot records this session wrote.
func (sl *sessionLog) snapshots() int64 {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.snapCount
}

func (sl *sessionLog) close() error {
	sl.mu.Lock()
	sl.closed = true
	sl.cond.Broadcast()
	sl.mu.Unlock()
	return sl.log.Close()
}

// Snapshot forces a durable engine-state snapshot at the current
// committed watermark and compacts the log behind it — the "drain →
// snapshot" half of a rolling restart: stop submitting, drain Commits,
// call Snapshot, and the next Recover boots from the snapshot with no
// per-instance replay. Needs WithDurability/Recover; cluster sessions
// refuse (their logs snapshot at rollback floors, where the whole
// cluster is provably past the watermark).
func (s *Session) Snapshot() (SnapshotInfo, error) {
	if s.slog == nil {
		return SnapshotInfo{}, fmt.Errorf("nab: Snapshot needs WithDurability or Recover")
	}
	return s.slog.snapshotNow()
}

// recovery is the state replayed out of a WAL at Open.
type recovery struct {
	k        int                    // committed watermark
	tail     int                    // highest logged submission
	foldList []*core.InstanceResult // restore tail: the commits above base
	replayed []*core.InstanceResult // commits present in the log, for re-delivery
	inputs   map[int][]byte         // logged submissions by instance
	// base is the state the engine restores from before folding
	// foldList: the anchoring snapshot when one survives in the log, else
	// the fresh pre-instance-1 state (digest DigestSeed, foldList then
	// starting at instance 1).
	base wal.Snapshot
	// resumed reports a non-empty log: a previous incarnation existed,
	// even if nothing it did survived the crash window. A cluster session
	// must announce a rejoin in that case — its peers may be stalled.
	resumed bool
}

// uncommitted lists the logged-but-uncommitted submissions in order.
func (rec *recovery) uncommitted() ([][]byte, error) {
	var out [][]byte
	for k := rec.k + 1; k <= rec.tail; k++ {
		in, ok := rec.inputs[k]
		if !ok {
			return nil, fmt.Errorf("nab: recover: submission %d missing from the log", k)
		}
		out = append(out, in)
	}
	return out, nil
}

// openSessionLog opens (or resumes) the session WAL and replays it.
func openSessionLog(o *durabilityOptions, fp uint64, node int64, cluster bool) (*sessionLog, *recovery, error) {
	// Submissions sync on the accept path; commit records ride the
	// background group-committed syncer (a commit lost in the batching
	// window re-executes identically on recovery).
	log, err := wal.Open(o.dir, wal.Options{SyncInterval: 5 * time.Millisecond, SegmentBytes: o.segmentBytes})
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*sessionLog, *recovery, error) {
		log.Close()
		return nil, nil, err
	}
	rec := &recovery{inputs: map[int][]byte{}, base: wal.Snapshot{Digest: wal.DigestSeed}}
	subSegs := map[int]uint64{}    // submission K -> segment, for the compaction floor
	commitSegs := map[int]uint64{} // commit K -> segment, ditto (floor snapshots trail)
	sawMeta := false
	var snap *wal.Snapshot
	firstCommit := 0
	empty := true
	err = log.Replay(func(typ byte, payload []byte, pos wal.Pos) error {
		empty = false
		switch typ {
		case wal.TypeMeta:
			// Meta opens a fresh log and is re-asserted at every
			// snapshot, so a compacted tail still carries one (not
			// necessarily first).
			m, err := wal.DecodeMeta(payload)
			if err != nil {
				return err
			}
			if m.Fingerprint != fp {
				return fmt.Errorf("nab: recover: log belongs to a different configuration (fingerprint %x, want %x)", m.Fingerprint, fp)
			}
			if m.Node != node {
				return fmt.Errorf("nab: recover: log belongs to cluster node %d, not %d", m.Node, node)
			}
			sawMeta = true
		case wal.TypeSubmit:
			s, err := wal.DecodeSubmit(payload)
			if err != nil {
				return err
			}
			rec.inputs[s.K] = append([]byte(nil), s.Payload...)
			subSegs[s.K] = pos.Seg
			if s.K > rec.tail {
				rec.tail = s.K
			}
		case wal.TypeCommit:
			ir, err := wal.DecodeCommit(payload)
			if err != nil {
				return err
			}
			if firstCommit == 0 {
				firstCommit = ir.K
				if snap == nil {
					// A compacted log's surviving tail starts mid-history;
					// the snapshot record carries the folded state of
					// everything dropped before it.
					rec.k = ir.K - 1
				} else if ir.K != rec.k+1 {
					// An anchoring snapshot pins rec.k at its watermark; a
					// first commit that does not extend it means compaction
					// orphaned the (anchor, firstCommit) range.
					return fmt.Errorf("nab: recover: first commit %d does not extend the anchor at %d", ir.K, rec.k)
				}
			}
			if ir.K != rec.k+1 {
				return fmt.Errorf("nab: recover: commit %d out of order (want %d)", ir.K, rec.k+1)
			}
			rec.k = ir.K
			rec.foldList = append(rec.foldList, ir)
			rec.replayed = append(rec.replayed, ir)
			commitSegs[ir.K] = pos.Seg
		case wal.TypeSnapshot:
			s, err := wal.DecodeSnapshot(payload)
			if err != nil {
				return err
			}
			if firstCommit == 0 {
				// No commit survives before it: the snapshot IS the log's
				// base (a compacted log, or a joiner's transferred state).
				if s.K < rec.k {
					return fmt.Errorf("nab: recover: snapshot at %d behind snapshot watermark %d", s.K, rec.k)
				}
				rec.k = s.K
			} else if s.K < firstCommit-1 || s.K > rec.k {
				// A floor snapshot may land after live commits past its
				// watermark (cluster rollbacks); it must still fall inside
				// the surviving committed range to anchor the fold.
				return fmt.Errorf("nab: recover: snapshot at %d outside committed range [%d, %d]", s.K, firstCommit-1, rec.k)
			}
			snap = &s
		default:
			return fmt.Errorf("nab: recover: unknown record type %#x", typ)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if !empty && !o.resume {
		return fail(fmt.Errorf("nab: WithDurability(%q): log is not empty; use Recover to resume it", o.dir))
	}
	sl := newSessionLog(log, wal.Meta{Fingerprint: fp, Node: node}, o.snapEvery)
	if empty {
		sl.buf = wal.AppendMeta(sl.buf[:0], sl.meta)
		if _, err := log.AppendSync(wal.TypeMeta, sl.buf); err != nil {
			return fail(err)
		}
		recoveryLog.Debug("wal-created", "dir", o.dir, "cluster", cluster)
		return sl, rec, nil
	}
	rec.resumed = true
	if !sawMeta {
		return fail(fmt.Errorf("nab: recover: log carries no meta record"))
	}
	anchored := snap != nil
	if anchored {
		// Anchor the restore at the snapshot: only commits above it fold.
		rec.base = *snap
	} else if firstCommit > 1 {
		return fail(fmt.Errorf("nab: recover: commits start at %d with no snapshot carrying the prefix", firstCommit))
	}
	if firstCommit > 0 {
		rec.foldList = rec.foldList[rec.base.K-(firstCommit-1):]
	}
	recoveryLog.Info("wal-recovered",
		"dir", o.dir, "k", rec.k, "tail", rec.tail,
		"replayed", len(rec.replayed), "snapshot", anchored, "cluster", cluster)
	// Submissions of committed instances may have been compacted away
	// with their segments; only the uncommitted range must survive
	// (validated by uncommitted()), and sequence numbering continues from
	// the committed watermark regardless.
	if rec.tail < rec.k {
		rec.tail = rec.k
	}
	sl.maxSubmit = rec.tail
	// Seed the compaction floor with the recovered-but-uncommitted
	// backlog: a snapshot fired before those instances commit must not
	// compact away the segments holding their submissions.
	for k := rec.k + 1; k <= rec.tail; k++ {
		if seg, ok := subSegs[k]; ok {
			sl.subSeg[k] = seg
		}
	}
	// Likewise the recovered commits above the anchor: a future floor
	// snapshot below rec.k must not compact away their segments.
	for _, ir := range rec.foldList {
		if seg, ok := commitSegs[ir.K]; ok {
			sl.commitSeg[ir.K] = seg
		}
	}
	return sl, rec, nil
}
