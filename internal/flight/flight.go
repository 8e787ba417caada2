// Package flight is the in-process flight recorder: a fixed-capacity
// ring of typed, nanosecond-stamped events fed by the engines, the
// transport, the WAL and the cluster control plane. It is a passive
// observer — recording never blocks the protocol, never changes frame
// contents or ordering, and costs one atomic load when disabled — so
// every differential byte-identity guarantee holds with it on.
//
// Events are keyed the way the system already keys causality: node,
// instance launch id (epoch<<32|k), dispute generation, and — for
// frames — the (link, instance, step) of the one step frame the runtime
// sends per link per step, a cross-process join key both ends record
// (the chaos layer schedules by the same key). tools/nabtrace merges
// dumps from many processes and stitches sends to receives on exactly
// that key.
//
// The recorder is process-global, like the metrics registry: engines
// record into Default() unconditionally, and enabling is a session or
// daemon decision (Session.WithFlightRecorder, nabserve/nabnode
// -flight). Anomaly sites (dispute barrier open, join digest tripwire,
// rejoin/join rounds) additionally request a black-box dump, written
// atomically next to the WAL so a kill -9 post-mortem includes the
// last N thousand events.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventType identifies what happened. The zero value marks an unwritten
// ring slot and is never recorded.
type EventType uint8

const (
	evNone EventType = iota
	// EvLaunch: an instance entered the window. Inst is the launch id,
	// K the protocol sequence number, Gen the dispute generation it
	// speculated under.
	EvLaunch
	// EvPhase: a protocol phase began for instance K. Step is a Phase*
	// code; the phase ends where the next one (or the commit) begins.
	EvPhase
	// EvBarrierOpen: a dispute barrier opened (generation bump
	// observed at fold). Gen is the new generation.
	EvBarrierOpen
	// EvReplay: a speculative instance was reaped for replay behind a
	// barrier. Inst is the stale launch id, K its sequence number.
	EvReplay
	// EvBarrierClose: the barrier drained; the window restarts.
	EvBarrierClose
	// EvCommit: instance K folded into the dispute state and was
	// delivered. Arg carries the total wire bits charged.
	EvCommit
	// EvFrameSend / EvFrameRecv: one step frame left / arrived. Node
	// is the local end, Peer the remote end, Inst the instance, Step the
	// delivery step — with the link, the cross-process stitch key — and
	// Arg the frame's bit charge.
	EvFrameSend
	EvFrameRecv
	// EvWALAppend / EvWALFsync / EvWALSnapshot: durability events.
	// Arg is bytes appended, records synced, or the snapshot K.
	EvWALAppend
	EvWALFsync
	EvWALSnapshot
	// EvRejoinRound: a cluster rollback round. Step is a Round* code,
	// Arg the round id, Inst the rewind watermark when known.
	EvRejoinRound
	// EvJoinRound: a blank-WAL join fetch. Step is a Round* code, Arg
	// the watermark or chunk count.
	EvJoinRound
	// EvAnomaly: an anomaly trigger fired. Arg is a Reason* code.
	EvAnomaly
)

// String names the event type for tools and tests.
func (t EventType) String() string {
	switch t {
	case EvLaunch:
		return "launch"
	case EvPhase:
		return "phase"
	case EvBarrierOpen:
		return "barrier-open"
	case EvReplay:
		return "replay"
	case EvBarrierClose:
		return "barrier-close"
	case EvCommit:
		return "commit"
	case EvFrameSend:
		return "frame-send"
	case EvFrameRecv:
		return "frame-recv"
	case EvWALAppend:
		return "wal-append"
	case EvWALFsync:
		return "wal-fsync"
	case EvWALSnapshot:
		return "wal-snapshot"
	case EvRejoinRound:
		return "rejoin-round"
	case EvJoinRound:
		return "join-round"
	case EvAnomaly:
		return "anomaly"
	}
	return "none"
}

// Phase codes carried in Event.Step by EvPhase events. Codes never move,
// so dumps stay readable; the protocol phases are in causal order, and
// PhasePlan, appended later, comes first when it occurs at all: only the
// instance that triggers its generation's plan build records it.
const (
	PhaseLaunch   uint32 = iota + 1 // window admission (EvLaunch itself)
	Phase1                          // coded sends down the arborescences
	PhaseEquality                   // pairwise equality checks
	PhaseFlags                      // flag broadcast
	PhaseClaims                     // Phase 3 dispute control / audit
	PhasePlan                       // the generation's plan build, before phase 1
)

// PhaseName names a Phase* code.
func PhaseName(code uint32) string {
	switch code {
	case PhaseLaunch:
		return "launch"
	case Phase1:
		return "phase1"
	case PhaseEquality:
		return "equality"
	case PhaseFlags:
		return "flags"
	case PhaseClaims:
		return "claims"
	case PhasePlan:
		return "plan"
	}
	return "phase?"
}

// Round codes carried in Event.Step by EvRejoinRound / EvJoinRound.
const (
	RoundAnnounce uint32 = iota + 1
	RoundSync
	RoundFetch
	RoundRewind
	RoundResume
)

// RoundName names a Round* code.
func RoundName(code uint32) string {
	switch code {
	case RoundAnnounce:
		return "announce"
	case RoundSync:
		return "sync"
	case RoundFetch:
		return "fetch"
	case RoundRewind:
		return "rewind"
	case RoundResume:
		return "resume"
	}
	return "round?"
}

// Reason codes carried in Event.Arg by EvAnomaly events. They double as
// the black-box dump file discriminator.
const (
	ReasonManual uint64 = iota + 1
	ReasonDispute
	ReasonTripwire
	ReasonRejoin
	ReasonJoin
	ReasonPredicate
	ReasonRollback
)

// ReasonName names a Reason* code; it is embedded in dump filenames, so
// it stays filesystem-safe.
func ReasonName(code uint64) string {
	switch code {
	case ReasonManual:
		return "manual"
	case ReasonDispute:
		return "dispute-barrier"
	case ReasonTripwire:
		return "digest-tripwire"
	case ReasonRejoin:
		return "rejoin"
	case ReasonJoin:
		return "join"
	case ReasonPredicate:
		return "predicate"
	case ReasonRollback:
		return "rollback-failed"
	}
	return "anomaly"
}

// Event is one recorded fact. The struct is fixed-size and pointer-free
// so recording is one claim, one stamp and one copy.
type Event struct {
	// TS is the wall-clock nanosecond timestamp, stamped by Record.
	TS int64
	// Seq is the recorder-global claim order, stamped by Record. It
	// breaks TS ties and survives ring wraparound.
	Seq uint64
	// Inst is the instance launch id (epoch<<32|k) where applicable.
	Inst uint64
	// Arg is type-specific: frame bits, bytes, round id, reason code.
	Arg uint64
	// K is the protocol sequence number when the event knows it.
	K int32
	// Gen is the dispute generation when the event knows it.
	Gen int32
	// Node is the local node id; -1 for process-scoped events.
	Node int32
	// Peer is the remote node id for frame events.
	Peer int32
	// Step is the protocol step, Phase* code, or Round* code.
	Step uint32
	// Type says which of the above fields mean anything.
	Type EventType
}

// slot is one ring cell. The per-slot mutex makes concurrent writers
// and snapshotters race-clean without a global lock: writers only ever
// contend with a snapshot in flight or with a wrap that lapped them.
type slot struct {
	mu sync.Mutex
	ev Event
}

type ring struct {
	slots []slot
	mask  uint64
	head  atomic.Uint64
}

// Recorder is a fixed-capacity event ring. The zero value is a valid,
// disabled recorder.
type Recorder struct {
	ring atomic.Pointer[ring]
	pred atomic.Pointer[func(Event) bool]

	mu      sync.Mutex
	label   string
	dumpDir string
	dumpCh  chan uint64
}

var def Recorder

// Default returns the process-global recorder every subsystem records
// into, mirroring the metrics registry's philosophy: instruments are
// global, enablement is a session/daemon decision.
func Default() *Recorder { return &def }

// Record appends ev to the default recorder.
//
//nab:allocfree
func Record(ev Event) { def.Record(ev) }

// Enabled reports whether the default recorder is armed — the one
// atomic load hot paths pay while tracing is off.
//
//nab:allocfree
func Enabled() bool { return def.Enabled() }

// Trigger fires an anomaly on the default recorder.
func Trigger(reason uint64) { def.Trigger(reason) }

func nowNS() int64 { return time.Now().UnixNano() }

// maxRingCapacity caps Enable requests so the power-of-two rounding
// cannot overflow int and a typo'd -flight value cannot demand an
// unallocatable ring. It matches maxDumpEvents: a ring no dump could
// carry would be pointless.
const maxRingCapacity = maxDumpEvents

// ringCapacity rounds a requested capacity to the ring's actual slot
// count: a power of two, minimum 1024, maximum maxRingCapacity.
func ringCapacity(capacity int) uint64 {
	if capacity > maxRingCapacity {
		capacity = maxRingCapacity
	}
	c := uint64(1024)
	for int(c) < capacity {
		c <<= 1
	}
	return c
}

// Enable arms the recorder with a ring of at least capacity events
// (rounded up to a power of two, minimum 1024, clamped to 2^24).
// Enabling an already enabled recorder installs a fresh ring and
// discards prior events.
func (r *Recorder) Enable(capacity int) {
	c := ringCapacity(capacity)
	r.ring.Store(&ring{slots: make([]slot, c), mask: c - 1})
}

// Disable stops recording and drops the ring. In-flight Record calls
// against the old ring complete harmlessly.
func (r *Recorder) Disable() { r.ring.Store(nil) }

// Enabled reports whether a ring is armed.
func (r *Recorder) Enabled() bool { return r.ring.Load() != nil }

// SetLabel names this process in dumps ("node-3", "nabserve", ...).
func (r *Recorder) SetLabel(label string) {
	r.mu.Lock()
	r.label = label
	r.mu.Unlock()
}

// SetPredicate installs a user anomaly predicate evaluated against
// every recorded event except EvAnomaly (the trigger's own record —
// exempting it keeps an always-true predicate from recursing); a true
// return triggers a black-box dump with ReasonPredicate. Pass nil to
// clear. The predicate runs on the record path — keep it cheap and
// non-blocking.
func (r *Recorder) SetPredicate(f func(Event) bool) {
	if f == nil {
		r.pred.Store(nil)
		return
	}
	r.pred.Store(&f)
}

// Record stamps ev with a claim sequence and wall timestamp and stores
// it into the ring, overwriting the event it lapped. It is safe from
// any goroutine and is a no-op while disabled.
//
//nab:allocfree
func (r *Recorder) Record(ev Event) {
	rg := r.ring.Load()
	if rg == nil {
		return
	}
	n := rg.head.Add(1) - 1
	ev.Seq = n
	ev.TS = time.Now().UnixNano()
	s := &rg.slots[n&rg.mask]
	s.mu.Lock()
	s.ev = ev
	s.mu.Unlock()
	// The predicate never sees EvAnomaly: Trigger records one, so an
	// always-true predicate would otherwise recurse Record→Trigger→
	// Record without bound.
	if ev.Type == EvAnomaly {
		return
	}
	if p := r.pred.Load(); p != nil && (*p)(ev) {
		r.Trigger(ReasonPredicate)
	}
}

// Total returns how many events have been recorded since Enable,
// including those the ring has overwritten.
func (r *Recorder) Total() uint64 {
	rg := r.ring.Load()
	if rg == nil {
		return 0
	}
	return rg.head.Load()
}

// Events snapshots the ring's surviving events in claim order. Writers
// proceed concurrently; an event racing its own overwrite lands as
// either the old or the new fact, both of which were true.
func (r *Recorder) Events() []Event {
	rg := r.ring.Load()
	if rg == nil {
		return nil
	}
	out := make([]Event, 0, len(rg.slots))
	for i := range rg.slots {
		s := &rg.slots[i]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Type != evNone {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
