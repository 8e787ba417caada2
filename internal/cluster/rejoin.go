package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nab/internal/core"
	"nab/internal/flight"
	"nab/internal/runtime"
)

// This file is the process-side half of the cluster's crash-recovery: a
// supervised stream loop that re-enters the pipelined runtime across
// rollback rounds.
//
// NAB is a synchronous-model protocol: when a peer process dies outside
// the fault model (kill -9), the survivors stall waiting for its frames —
// there is nothing to decide, only work to re-drive. The rejoin protocol
// therefore rolls the whole cluster back to its minimum committed
// instance m and re-executes everything above it:
//
//  1. the restarted process replays its WAL, restores its runtime to its
//     own watermark and announces "rejoin" on the control plane;
//  2. the coordinator broadcasts "sync": every process aborts its stream
//     (in-flight speculation reaped exactly like a dispute barrier) and
//     answers with its committed watermark and launch epoch;
//  3. the coordinator fixes m = min(watermarks) and a fresh launch epoch
//     E above every epoch in use, and broadcasts "rewind": every process
//     restores its runtime to its own committed prefix [:m] on launch
//     base E<<32 — stale frames of abandoned executions demultiplex
//     below the base and are dropped;
//  4. once every process acknowledges, "resume" restarts the streams.
//     Instances a process had already committed re-execute (their frames
//     are what the rolled-back peers are missing) with their commits
//     suppressed locally, so consumers never see a duplicate; instances
//     above the old watermark commit normally. Determinism of the
//     engines makes the re-driven sequence byte-identical.
//
// The same machinery covers a coordinator restart: followers observe the
// dead control connection ("ctrldown"), redial until the coordinator is
// back, and announce "rejoin" themselves.

// inputBuffer retains every submission pulled from the session so
// rollback rounds can re-feed instances the runtime already consumed.
// Entries at or below the cluster-wide rollback floor are pruned at each
// rewind; retention between rollbacks is the cost of durability.
type inputBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   map[int][]byte
	tail   int // highest instance with a known input
	closed bool
}

func newInputBuffer(recovered map[int][]byte) *inputBuffer {
	b := &inputBuffer{data: map[int][]byte{}}
	b.cond = sync.NewCond(&b.mu)
	for k, in := range recovered {
		b.data[k] = in
		if k > b.tail {
			b.tail = k
		}
	}
	return b
}

// put appends the next submission and returns its instance number.
func (b *inputBuffer) put(in []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tail++
	b.data[b.tail] = in
	b.cond.Broadcast()
	return b.tail
}

func (b *inputBuffer) closeBuf() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// prune drops inputs at or below floor — instances every process of the
// cluster has committed can never be rolled back to again.
func (b *inputBuffer) prune(floor int) {
	b.mu.Lock()
	for k := range b.data {
		if k <= floor {
			delete(b.data, k)
		}
	}
	b.mu.Unlock()
}

// feed pumps inputs from+1, from+2, ... into out, closing it when the
// buffer is closed and drained. A close of stop aborts the feed (the
// stream it supplies was canceled).
func (b *inputBuffer) feed(stop <-chan struct{}, out chan<- []byte, from int) {
	defer close(out)
	go func() {
		<-stop
		// Broadcast under the mutex: an unlocked wakeup can fire between
		// the feeder's stop-check and its cond.Wait and be lost forever.
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}()
	next := from + 1
	for {
		b.mu.Lock()
		for {
			if _, ok := b.data[next]; ok || b.closed {
				break
			}
			select {
			case <-stop:
				b.mu.Unlock()
				return
			default:
			}
			b.cond.Wait()
		}
		in, ok := b.data[next]
		b.mu.Unlock()
		if !ok {
			return // closed and drained
		}
		select {
		case out <- in:
			next++
		case <-stop:
			return
		}
	}
}

// streamDurable is Stream's crash-recovery form: RunStream supervised
// across rollback rounds, commits suppressed below the delivered
// watermark, the whole committed history (recovered + live) aggregated
// into the result.
func (n *Node) streamDurable(ctx context.Context, subs <-chan []byte, commit func(*core.InstanceResult) error) (*runtime.Result, error) {
	// Pump the session's submissions into the retained buffer.
	go func() {
		for {
			select {
			case in, ok := <-subs:
				if !ok {
					n.inputs.closeBuf()
					return
				}
				n.inputs.put(in)
			case <-ctx.Done():
				n.inputs.closeBuf()
				return
			}
		}
	}()

	events := n.ctrl.Events()
	commitFn := func(ir *core.InstanceResult) error {
		if ir.K <= n.watermark() {
			// Re-execution below the delivered watermark: the wire
			// traffic is the point; the commit was delivered (and
			// persisted) before the rollback.
			return nil
		}
		n.extend(ir)
		if n.checkK == ir.K {
			// The join-round tripwire: this process's own re-execution of
			// the fetched tail just reached the pre-join watermark, and its
			// chain must land on the digest f+1 servers agreed on.
			if got := n.digestAt(ir.K); got != n.checkDigest {
				flight.Trigger(flight.ReasonTripwire)
				return fmt.Errorf("cluster: re-executed chain digest %016x at instance %d diverges from the join quorum's %016x", got, ir.K, n.checkDigest)
			}
			n.checkK = 0
			n.log.Info("join-reexec-verified", "k", ir.K)
		}
		if commit != nil {
			return commit(ir)
		}
		return nil
	}

	// A restarted process opens its rejoin round now, from inside the
	// supervisor: an announcement that dies with its control connection
	// (a redial raced the dead coordinator's lingering accept backlog)
	// re-enters through the ctrldown path instead of failing the boot.
	if n.rejoinPending {
		n.rejoinPending = false
		n.log.Info("announce-rejoin", "watermark", n.watermark(), "blank", n.blank)
		if n.blank {
			n.joinBegan = time.Now()
			flight.Trigger(flight.ReasonJoin)
		} else {
			flight.Trigger(flight.ReasonRejoin)
		}
		if flight.Enabled() {
			et := flight.EvRejoinRound
			if n.blank {
				et = flight.EvJoinRound
			}
			flight.Record(flight.Event{Type: et, Node: -1,
				Step: flight.RoundAnnounce, Inst: uint64(n.watermark())})
		}
		if err := n.ctrl.up(ctrlMsg{Type: "rejoin"}); err != nil {
			n.log.Error("announce-failed", "err", err, "action", "reconnect")
			if err := n.rollback(ctx, n.ctrl.ctrldownNow()); err != nil {
				n.ctrl.barrier(ctx, time.Second)
				return nil, err
			}
		}
	}

	var lastRes *runtime.Result
	for {
		innerCtx, cancel := context.WithCancel(ctx)
		innerSubs := make(chan []byte, max(1, n.rt.Window()))
		go n.inputs.feed(innerCtx.Done(), innerSubs, n.rt.Committed())
		type streamRes struct {
			res *runtime.Result
			err error
		}
		done := make(chan streamRes, 1)
		go func() {
			res, err := n.rt.RunStream(innerCtx, innerSubs, commitFn)
			done <- streamRes{res, err}
		}()

		var sr streamRes
		var rollEv *ctrlMsg
	wait:
		for {
			select {
			case sr = <-done:
				n.log.Debug("stream-returned", "err", sr.err, "committed", len(n.committed))
				break wait
			case ev := <-events:
				if (ev.Type == "sync" || ev.Type == "ctrldown") && !n.ctrl.staleCtrldown(ev) {
					n.log.Info("stream-interrupted", "by", ev.Type, "round", ev.Round)
					cancel()
					sr = <-done
					rollEv = &ev
					break wait
				}
				// rewind/resume of a round we already left, or a loss
				// reported by an already-replaced control conn: stale.
			case <-ctx.Done():
				cancel()
				<-done
				n.ctrl.barrier(ctx, time.Second)
				return nil, ctx.Err()
			}
		}
		cancel()

		if rollEv != nil {
			if err := n.rollback(ctx, *rollEv); err != nil {
				n.ctrl.barrier(ctx, time.Second)
				return nil, err
			}
			continue
		}
		if sr.err != nil {
			n.ctrl.barrier(ctx, time.Second)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, sr.err
		}
		lastRes = sr.res

		// Workload complete: park at the shutdown barrier, mesh intact,
		// still answering rollbacks for peers that crashed near the end.
		n.log.Debug("parking", "round", n.lastRound, "committed", len(n.committed))
		ev, err := n.park(ctx, events)
		if err != nil {
			return nil, err
		}
		if ev == nil {
			n.log.Debug("released")
			// The result spans the whole committed history, not just the
			// last supervised RunStream.
			res := lastRes
			res.RunResult = core.RunResult{LenBits: res.LenBits}
			for _, ir := range n.committed {
				res.Add(ir, commit == nil)
			}
			return res, nil
		}
		if err := n.rollback(ctx, *ev); err != nil {
			n.ctrl.barrier(ctx, time.Second)
			return nil, err
		}
	}
}

// park announces this process done and waits for the cluster to finish —
// or for a rollback round that pulls it back in. A nil event means the
// process is released.
func (n *Node) park(ctx context.Context, events <-chan ctrlMsg) (*ctrlMsg, error) {
	if err := n.ctrl.up(ctrlMsg{Type: "done", Round: n.lastRound}); err != nil {
		// The control link died while announcing: treat as a pending
		// coordinator restart.
		ev := n.ctrl.ctrldownNow()
		return &ev, nil
	}
	timeout := time.After(rejoinLinger)
	for {
		select {
		case <-n.ctrl.allDone:
			return nil, nil
		case ev := <-events:
			if (ev.Type == "sync" || ev.Type == "ctrldown") && !n.ctrl.staleCtrldown(ev) {
				if ev.Type == "ctrldown" && n.ctrl.released() {
					// The reader closes allDone before it reports the loss:
					// the coordinator released us and exited. Do not redial.
					return nil, nil
				}
				return &ev, nil
			}
		case <-timeout:
			return nil, nil
		case <-ctx.Done():
			return nil, nil
		}
	}
}

// rollback drives this process through one rollback round (possibly
// restarted by further rejoins): ack the sync with our watermark; in a
// join round push our state as a server or, blank, count the servers'
// votes; rewind the runtime to the agreed floor on the agreed launch
// epoch, ack, and wait for the cluster-wide resume. Every error leaving
// it names the round (before its sync arrives, the last one this process
// acked) and the phase it failed in, and leaves a black-box dump unless
// the caller's context ended.
func (n *Node) rollback(ctx context.Context, ev ctrlMsg) (err error) {
	ph := phaseSync
	defer func() {
		if err != nil {
			err = fmt.Errorf("cluster: rollback round %d (phase %s): %w", n.lastRound, ph, err)
			if ctx.Err() == nil {
				flight.Trigger(flight.ReasonRollback)
			}
		}
	}()
	events := n.ctrl.Events()
	deadline := time.After(rejoinLinger)
	began := time.Now()
	next := func() (ctrlMsg, error) {
		for {
			select {
			case ev := <-events:
				if n.ctrl.staleCtrldown(ev) {
					continue // a replaced conn's loss; the successor is live
				}
				return ev, nil
			case <-deadline:
				return ctrlMsg{}, fmt.Errorf("cluster: timed out after %v", rejoinLinger)
			case <-ctx.Done():
				return ctrlMsg{}, ctx.Err()
			}
		}
	}
	for {
		switch ev.Type {
		case "ctrldown":
			// Coordinator restart: redial until it is back, announce
			// ourselves, then wait for its sync. A connection that dies
			// again under the announcement — a dial raced into the dead
			// listener's backlog — just loops back here, bounded by the
			// round deadline.
			ph = phaseReconnect
			select {
			case <-deadline:
				return fmt.Errorf("cluster: control-plane reconnect timed out after %v", rejoinLinger)
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			if err := n.ctrl.Reconnect(ctx, n.opt.BootTimeout); err != nil {
				return err
			}
			if err := n.ctrl.up(ctrlMsg{Type: "rejoin"}); err != nil {
				n.log.Error("rejoin-after-reconnect-failed", "err", err, "action", "retry")
				ev = n.ctrl.ctrldownNow()
				continue
			}
			if ev, err = next(); err != nil {
				return err
			}
		case "sync":
			ph = phaseSync
			round := ev.Round
			n.lastRound = round
			mRollbackRounds.Inc()
			watermark := n.watermark()
			if flight.Enabled() {
				flight.Record(flight.Event{Type: flight.EvRejoinRound, Node: -1,
					Step: flight.RoundSync, Arg: uint64(round), Inst: uint64(watermark)})
			}
			n.log.Info("ack-sync", "round", round, "watermark", watermark, "floor", n.base.K, "blank", n.blank, "epoch", n.epoch)
			synced := ctrlMsg{Type: "synced", Round: round, K: watermark, Epoch: n.epoch, Floor: n.base.K, Blank: n.blank, Peer: n.lead}
			if err := n.ctrl.up(synced); err != nil {
				ev = n.ctrl.ctrldownNow()
				continue
			}
			// The round's event loop: a join round's fetch phase runs
			// between the sync ack and the rewind, and the resume only
			// lands after our rewound ack. A fresh sync or a control loss
			// at any point restarts the round via the outer dispatch.
			m, rewound := 0, false
		round:
			for {
				if ev, err = next(); err != nil {
					return err
				}
				switch {
				case ev.Type == "sync" || ev.Type == "ctrldown":
					break round // round restarted under us, or dead coordinator
				case ev.Round != round:
					// A stale round's straggler; ignore.
				case ev.Type == "fetch" && n.blank:
					ph = phaseFetch
					if flight.Enabled() {
						flight.Record(flight.Event{Type: flight.EvJoinRound, Node: -1,
							Step: flight.RoundFetch, Arg: uint64(round), Inst: uint64(ev.K)})
					}
					abort, err := n.joinFetch(round, ev, next)
					if err != nil {
						return err
					}
					if abort != nil {
						ev = *abort
						break round
					}
				case ev.Type == "fetch":
					ph = phaseFetch
					state, err := n.stateMsg(ev)
					if err != nil {
						return err
					}
					if state != nil && n.ctrl.up(*state) != nil {
						ev = n.ctrl.ctrldownNow()
						break round
					}
				case ev.Type == "rewind" && !rewound:
					ph = phaseRewind
					m = ev.K
					if flight.Enabled() {
						flight.Record(flight.Event{Type: flight.EvRejoinRound, Node: -1,
							Step: flight.RoundRewind, Arg: uint64(round), Inst: uint64(m)})
					}
					if err := n.applyRewind(m, ev.Epoch); err != nil {
						return err
					}
					rewound = true
					if err := n.ctrl.up(ctrlMsg{Type: "rewound", Round: round}); err != nil {
						ev = n.ctrl.ctrldownNow()
						break round
					}
				case ev.Type == "resume" && rewound:
					ph = phaseResume
					if err := n.persistFloorAt(m); err != nil {
						return err
					}
					dur := time.Since(began)
					mRejoinDuration.Observe(dur.Seconds())
					if !n.joinBegan.IsZero() {
						// First resume after a blank join: the satellite
						// instrument measures the joiner's whole
						// announce→resume arc, not just this round.
						mJoinDuration.Observe(time.Since(n.joinBegan).Seconds())
						n.joinBegan = time.Time{}
					}
					if flight.Enabled() {
						flight.Record(flight.Event{Type: flight.EvRejoinRound, Node: -1,
							Step: flight.RoundResume, Arg: uint64(round), Inst: uint64(m)})
					}
					n.log.Info("resume", "round", round, "dur", dur)
					return nil
				}
			}
			// Loop with the event that broke the round.
		default:
			if ev, err = next(); err != nil {
				return err
			}
		}
	}
}
