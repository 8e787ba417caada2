package cluster

import (
	"context"
	"fmt"
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
//
// Re-execution needs the submissions again, so the process retains every
// one it pulled in Node.inputs until a rewind floor passes it. One feeder
// per supervised stream hands the runtime its inputs from the runtime's
// watermark on, pulling a fresh submission from the session only when the
// next instance has none retained: a session's Submit blocks once the
// window, the feeder's buffer and the one submission in its hand are full,
// as on every other engine. The supervisor then waits in one select — on
// the stream, on rollback events and, once the workload is done, on the
// shutdown barrier — and drives each rollback round as one event loop.

// feed starts a stream's feeder: it sends the inputs of instances from+1,
// from+2, ... on the returned channel, buffered to the window so the
// runtime finds its next window of inputs ready. While the next instance
// has no retained input it pulls one from subs as instance tail+1 and
// keeps it for re-execution (a joiner's payloads start at 1, so they fill
// the instances below its floor too). It closes the channel when subs
// closes or ctx ends; inputs and tail are the feeder's until then.
func (n *Node) feed(ctx context.Context, subs <-chan []byte, from int) <-chan []byte {
	out := make(chan []byte, max(1, n.rt.Window()))
	go func() {
		defer close(out)
		for k := from + 1; ; k++ {
			for n.tail < k {
				select {
				case in, ok := <-subs:
					if !ok {
						return
					}
					n.tail++
					n.inputs[n.tail] = in
				case <-ctx.Done():
					return
				}
			}
			select {
			case out <- n.inputs[k]:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// streamDurable is Stream's crash-recovery form: RunStream supervised
// across rollback rounds, commits suppressed below the delivered
// watermark, the whole committed history (recovered + live) aggregated
// into the result.
func (n *Node) streamDurable(ctx context.Context, subs <-chan []byte, commit func(*core.InstanceResult) error) (*runtime.Result, error) {
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
		}
		if commit != nil {
			return commit(ir)
		}
		return nil
	}
	fail := func(err error) (*runtime.Result, error) {
		n.ctrl.barrier(ctx, time.Second)
		return nil, err
	}
	// result spans the whole committed history, not just the last
	// supervised RunStream.
	result := func(res *runtime.Result) (*runtime.Result, error) {
		res.RunResult = core.RunResult{LenBits: res.LenBits}
		for _, ir := range n.committed {
			res.Add(ir, commit == nil)
		}
		return res, nil
	}

	// A restarted process opens its rejoin round now, from inside the
	// supervisor: an announcement that dies with its control connection
	// (a redial raced the dead coordinator's lingering accept backlog)
	// re-enters through the ctrldown path instead of failing the boot.
	if n.rejoinPending {
		n.rejoinPending = false
		if n.blank {
			n.joinBegan = time.Now()
			flight.Trigger(flight.ReasonJoin)
			recordRound(flight.EvJoinRound, flight.RoundAnnounce, 0, n.watermark())
		} else {
			flight.Trigger(flight.ReasonRejoin)
			recordRound(flight.EvRejoinRound, flight.RoundAnnounce, 0, n.watermark())
		}
		if err := n.ctrl.up(ctrlMsg{Type: "rejoin"}); err != nil {
			if err := n.rollback(ctx, n.ctrl.ctrldownNow()); err != nil {
				return fail(err)
			}
		}
	}

	type streamRes struct {
		res *runtime.Result
		err error
	}
	for {
		// RunStream holds the runtime's lock while it runs: read the
		// watermark before it starts.
		innerCtx, cancel := context.WithCancel(ctx)
		inputs := n.feed(innerCtx, subs, n.rt.Committed())
		done := make(chan streamRes, 1)
		go func() {
			res, err := n.rt.RunStream(innerCtx, inputs, commitFn)
			done <- streamRes{res, err}
		}()

		// Wait for the stream, then — workload complete — park at the
		// shutdown barrier, mesh intact, still answering rollbacks for
		// peers that crashed near the end. A sync or a control loss in
		// either state starts a rollback round (ev); every other exit
		// returns the result or err.
		var res *runtime.Result
		var ev *ctrlMsg
		var err error
		var allDone <-chan struct{}
		var linger <-chan time.Time
	wait:
		for {
			select {
			case sr := <-done:
				done = nil
				if res, err = sr.res, sr.err; err != nil {
					if ctx.Err() != nil {
						err = ctx.Err()
					}
					break wait
				}
				if n.ctrl.up(ctrlMsg{Type: "done", Round: n.lastRound}) != nil {
					// The control link died while announcing: treat as a
					// pending coordinator restart.
					down := n.ctrl.ctrldownNow()
					ev = &down
					break wait
				}
				allDone, linger = n.ctrl.allDone, time.After(rejoinLinger)
			case <-allDone:
				break wait
			case <-linger:
				break wait
			case e := <-events:
				if (e.Type != "sync" && e.Type != "ctrldown") || n.ctrl.staleCtrldown(e) {
					// rewind/resume of a round we already left, or a loss
					// reported by an already-replaced control conn: stale.
					continue
				}
				if res == nil || e.Type == "sync" || !n.ctrl.released() {
					ev = &e
				}
				// Otherwise the reader closed allDone before it reported
				// the loss: the coordinator released us and exited. Do not
				// redial.
				break wait
			case <-ctx.Done():
				if res == nil {
					err = ctx.Err()
				}
				break wait
			}
		}
		// End the stream and its feeder: inputs and tail are the
		// supervisor's again.
		cancel()
		if done != nil {
			<-done
		}
		for range inputs {
		}
		switch {
		case err != nil:
			return fail(err)
		case ev == nil:
			return result(res)
		}
		if err := n.rollback(ctx, *ev); err != nil {
			return fail(err)
		}
	}
}

// rollback drives this process through one rollback round (possibly
// restarted by further rejoins) as one loop over its events, starting
// with ev: ack the sync with our watermark; in a join round push our
// state as a server or, blank, count the servers' votes; rewind the
// runtime to the agreed floor m on the agreed launch epoch, ack, and wait
// for the cluster-wide resume. A fresh sync or a control loss at any
// point restarts the round. Every error leaving it names the round
// (before its sync arrives, the last one this process acked) and the
// phase it failed in, and leaves a black-box dump unless the caller's
// context ended.
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
	// The round's state: whether we acked its sync, whether we rewound,
	// the floor m we rewound to, and a blank joiner's vote table.
	synced, rewound, m := false, false, 0
	var tally *votes
	for {
		var reply *ctrlMsg
		switch {
		case n.ctrl.staleCtrldown(ev):
			// A replaced conn's loss; the successor is live.
		case ev.Type == "ctrldown":
			// Coordinator restart: redial until it is back, announce
			// ourselves, then wait for its sync. A connection that dies
			// again under the announcement — a dial raced into the dead
			// listener's backlog — just comes back here, bounded by the
			// round deadline.
			ph, synced = phaseReconnect, false
			recordRound(flight.EvRejoinRound, flight.RoundReconnect, n.lastRound, n.watermark())
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
			reply = &ctrlMsg{Type: "rejoin"}
		case ev.Type == "sync":
			ph, n.lastRound = phaseSync, ev.Round
			synced, rewound, m, tally = true, false, 0, nil
			mRollbackRounds.Inc()
			watermark := n.watermark()
			recordRound(flight.EvRejoinRound, flight.RoundSync, ev.Round, watermark)
			reply = &ctrlMsg{Type: "synced", Round: ev.Round, K: watermark, Epoch: n.epoch, Floor: n.base.K, Blank: n.blank, Peer: n.lead}
		case !synced || ev.Round != n.lastRound:
			// Before our sync ack, or a stale round's straggler; ignore.
		case ev.Type == "fetch" && n.blank:
			ph = phaseFetch
			recordRound(flight.EvJoinRound, flight.RoundFetch, ev.Round, ev.K)
			if tally, err = n.tally(ev); err != nil {
				return err
			}
		case ev.Type == "state" && tally != nil:
			res, err := tally.add(ev)
			if err != nil {
				return err
			}
			if res != nil {
				// The agreed state waits in pending for the rewind.
				n.pending = res
				mJoinRounds.Inc()
				mJoinServerRejects.Add(int64(tally.cast - tally.need))
				tally = nil
				reply = &ctrlMsg{Type: "joined", Round: ev.Round, Peer: n.lead}
			}
		case ev.Type == "fetch":
			ph = phaseFetch
			if reply, err = n.stateMsg(ev); err != nil {
				return err
			}
		case ev.Type == "rewind" && !rewound:
			ph, m = phaseRewind, ev.K
			recordRound(flight.EvRejoinRound, flight.RoundRewind, ev.Round, m)
			if err := n.applyRewind(m, ev.Epoch); err != nil {
				return err
			}
			rewound = true
			reply = &ctrlMsg{Type: "rewound", Round: ev.Round}
		case ev.Type == "resume" && rewound:
			ph = phaseResume
			if err := n.persistFloorAt(m); err != nil {
				return err
			}
			mRejoinDuration.Observe(time.Since(began).Seconds())
			if !n.joinBegan.IsZero() {
				// First resume after a blank join: the satellite
				// instrument measures the joiner's whole announce→resume
				// arc, not just this round.
				mJoinDuration.Observe(time.Since(n.joinBegan).Seconds())
				n.joinBegan = time.Time{}
			}
			recordRound(flight.EvRejoinRound, flight.RoundResume, ev.Round, m)
			return nil
		}
		if reply != nil && n.ctrl.up(*reply) != nil {
			ev = n.ctrl.ctrldownNow()
			continue
		}
		select {
		case ev = <-events:
		case <-deadline:
			return fmt.Errorf("cluster: timed out after %v", rejoinLinger)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// recordRound notes one step of a rollback or join round in the flight
// recorder: step is a Round* code, k the watermark or boundary it names.
func recordRound(t flight.EventType, step uint32, round, k int) {
	flight.Record(flight.Event{Type: t, Node: -1, Step: step, Arg: uint64(round), Inst: uint64(k)})
}
