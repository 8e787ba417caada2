// Command nabtrace merges flight-recorder dumps from one or many NAB
// processes into a single causal timeline. It reads NABFLT01 dump files
// (Session.TraceDump, GET /debug/flight, or the black-box
// flight-<reason>.dump files an anomaly drops next to a WAL), stitches
// frame sends to their receives across process boundaries on the
// (link, instance, step) key — the runtime sends one frame per link per
// step — and emits:
//
//   - a Chrome trace-event JSON file (-o, default trace.json) loadable
//     in Perfetto / chrome://tracing: one track per process, one lane
//     per instance with nested phase spans (launch -> [plan ->] phase1
//     -> equality -> flags -> claims -> commit; plan only on the instance
//     that built its generation's plan), dispute barriers and
//     rejoin/join rounds as spans on a control lane, anomalies, WAL
//     syncs and recoveries and mesh link drops and redials as instants
//     there, and stitched frames as flow arrows between processes;
//   - an aligned-text report on stdout: per-process event counts, the
//     per-phase latency breakdown over committed instances, and frame
//     stitching statistics (cross-process frame flight times).
//
// Usage:
//
//	nabtrace [-o trace.json] [-max-flows 5000] dump1 [dump2 ...]
//
// Timestamps are wall-clock nanoseconds stamped at record time; dumps
// captured on one machine (the multi-process cluster's deployment
// model) share a clock, so cross-process spans line up without skew
// correction. Dumps with torn tails (a crash mid-black-box-write)
// decode to their surviving prefix and merge like any other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"nab/internal/flight"
	"nab/internal/texttab"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nabtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nabtrace", flag.ContinueOnError)
	out := fs.String("o", "trace.json", "write Chrome trace-event JSON here (\"-\" for stdout, \"\" to skip)")
	maxFlows := fs.Int("max-flows", 5000, "cap on stitched frame flow arrows in the JSON (earliest kept; the text report always counts all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no dump files given (capture one with /debug/flight or Session.TraceDump)")
	}

	procs, err := loadDumps(fs.Args())
	if err != nil {
		return err
	}
	tl := buildTimeline(procs, *maxFlows)

	if *out != "" {
		raw, err := json.Marshal(traceFile{TraceEvents: tl.events, DisplayTimeUnit: "ms"})
		if err != nil {
			return err
		}
		if *out == "-" {
			w.Write(raw)
			fmt.Fprintln(w)
		} else {
			if err := os.WriteFile(*out, raw, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "nabtrace: wrote %d trace events to %s\n", len(tl.events), *out)
		}
	}
	writeReport(w, procs, tl)
	return nil
}

// process is one loaded dump plus its assigned Chrome pid.
type process struct {
	path string
	pid  int
	dump flight.Dump
	stat procStat
}

// loadDumps reads and decodes every dump, assigning pids in a
// deterministic order (label, then path) so output is stable no matter
// how the shell expanded the arguments.
func loadDumps(paths []string) ([]*process, error) {
	procs := make([]*process, 0, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		d, err := flight.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		sort.Slice(d.Events, func(i, j int) bool { return d.Events[i].Seq < d.Events[j].Seq })
		procs = append(procs, &process{path: p, dump: d})
	}
	sort.Slice(procs, func(i, j int) bool {
		a, b := procs[i], procs[j]
		if a.dump.Meta.Label != b.dump.Meta.Label {
			return a.dump.Meta.Label < b.dump.Meta.Label
		}
		return a.path < b.path
	})
	for i, p := range procs {
		p.pid = i + 1
	}
	return procs, nil
}

// Lane (Chrome tid) assignment inside one process track: a control lane
// for barriers/rounds/anomalies/WAL/links, a lane for frames whose launch
// event the ring already overwrote, and one lane per instance.
const (
	laneCtrl     = 0
	laneOrphan   = 1
	laneInstBase = 2
)

// traceEvent is one Chrome trace-event JSON object. Field order is the
// struct order; encoding/json keeps it stable for golden output.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// procStat aggregates what the text report prints per process.
type procStat struct {
	commits, replays, barriers, anomalies int
	sends, recvs                          int
	fsyncs                                int
	// seg accumulates per-phase-segment durations (seconds) over
	// committed instances; keys are the fixed column labels below.
	seg map[string]*segStat
}

type segStat struct {
	sum float64
	n   int
}

func (s *procStat) addSeg(label string, ns int64) {
	if s.seg == nil {
		s.seg = map[string]*segStat{}
	}
	st := s.seg[label]
	if st == nil {
		st = &segStat{}
		s.seg[label] = st
	}
	st.sum += float64(ns) / 1e6 // ms
	st.n++
}

// segColumns is the fixed order of the latency-breakdown table; the
// phase chain is linear, so segments are simply consecutive pairs. The
// plan build, recorded only by the instance that triggers it, is not a
// link of the chain: launch→phase1 includes it and "plan" times it.
var segColumns = []string{
	"launch→phase1", "plan", "phase1→equality", "equality→flags",
	"flags→claims", "→commit", "total",
}

// frameKey is the cross-process stitch key: the runtime sends exactly one
// frame per (link, instance, step), and both ends record those
// coordinates.
type frameKey struct {
	from, to int32
	inst     uint64
	step     uint32
}

type frameRef struct {
	pid  int
	ts   int64
	bits uint64
	lane int64
}

// timeline is the merged result: the Chrome events plus the stitching
// statistics the report prints.
type timeline struct {
	events []traceEvent
	t0     int64 // earliest timestamp across all dumps; JSON ts are relative

	stitched, dupKeys         int
	orphanSends, orphanRecvs  int
	flightSumMS, flightMaxMS  float64
	flowsEmitted, flowsCapped int
}

func buildTimeline(procs []*process, maxFlows int) *timeline {
	tl := &timeline{t0: 1<<63 - 1}
	for _, p := range procs {
		for _, ev := range p.dump.Events {
			if ev.TS < tl.t0 {
				tl.t0 = ev.TS
			}
		}
	}
	if tl.t0 == 1<<63-1 {
		tl.t0 = 0
	}
	us := func(ns int64) float64 { return float64(ns-tl.t0) / 1e3 }

	sends := map[frameKey]frameRef{}
	recvs := map[frameKey]frameRef{}

	for _, p := range procs {
		tl.events = append(tl.events, traceEvent{
			Name: "process_name", Ph: "M", PID: p.pid, TID: laneCtrl,
			Args: map[string]any{"name": p.dump.Meta.Label},
		})
	}

	for _, p := range procs {
		tl.emitProcess(p, us, sends, recvs)
	}
	tl.stitchFlows(sends, recvs, us, maxFlows)
	return tl
}

// instOpen tracks one launched-but-uncommitted instance while walking a
// process's events in record order.
type instOpen struct {
	inst     uint64
	gen      int32
	launchTS int64
	phases   []flight.Event
}

func (tl *timeline) emitProcess(p *process, us func(int64) float64, sends, recvs map[frameKey]frameRef) {
	st := &p.stat
	open := map[int32]*instOpen{} // K -> open instance
	launchK := map[uint64]int32{} // launch id -> K, for frame lanes
	var barrierTS int64           // open dispute barrier
	var barrierGen int32
	var roundStart int64 // open rejoin/join round
	var roundName string

	lane := func(k int32) int64 { return int64(k) + laneInstBase }
	instant := func(name string, ts int64, tid int64, args map[string]any) {
		tl.events = append(tl.events, traceEvent{
			Name: name, Ph: "i", TS: us(ts), PID: p.pid, TID: tid, S: "t", Args: args,
		})
	}
	span := func(name string, from, to int64, tid int64, args map[string]any) {
		tl.events = append(tl.events, traceEvent{
			Name: name, Ph: "X", TS: us(from), Dur: float64(to-from) / 1e3,
			PID: p.pid, TID: tid, Args: args,
		})
	}

	commitInstance := func(o *instOpen, k int32, commitTS int64) {
		span(fmt.Sprintf("inst %d", k), o.launchTS, commitTS, lane(k),
			map[string]any{"gen": o.gen, "launch": o.inst})
		prevName, prevTS := "launch", o.launchTS
		for i, ph := range o.phases {
			name, end := flight.PhaseName(ph.Step), commitTS
			if i+1 < len(o.phases) {
				end = o.phases[i+1].TS
			}
			span(name, ph.TS, end, lane(k), nil)
			if ph.Step == flight.PhasePlan {
				st.addSeg(name, end-ph.TS) // inside launch→phase1, timed on its own
				continue
			}
			st.addSeg(prevName+"→"+name, ph.TS-prevTS)
			prevName, prevTS = name, ph.TS
		}
		st.addSeg("→commit", commitTS-prevTS)
		st.addSeg("total", commitTS-o.launchTS)
	}

	for _, ev := range p.dump.Events {
		switch ev.Type {
		case flight.EvLaunch:
			open[ev.K] = &instOpen{inst: ev.Inst, gen: ev.Gen, launchTS: ev.TS}
			launchK[ev.Inst] = ev.K
		case flight.EvPhase:
			if o := open[ev.K]; o != nil {
				o.phases = append(o.phases, ev)
			}
		case flight.EvCommit:
			st.commits++
			if o := open[ev.K]; o != nil {
				commitInstance(o, ev.K, ev.TS)
				delete(open, ev.K)
			} else {
				instant(fmt.Sprintf("commit inst %d", ev.K), ev.TS, lane(ev.K), nil)
			}
		case flight.EvBarrierOpen:
			st.barriers++
			barrierTS, barrierGen = ev.TS, ev.Gen
		case flight.EvReplay:
			st.replays++
			instant(fmt.Sprintf("replay inst %d", ev.K), ev.TS, laneCtrl,
				map[string]any{"gen": ev.Gen})
			// The replayed speculation is dead; its relaunch opens fresh.
			if o := open[ev.K]; o != nil && o.gen == ev.Gen {
				delete(open, ev.K)
			}
		case flight.EvBarrierClose:
			if barrierTS != 0 {
				span(fmt.Sprintf("dispute barrier gen %d", barrierGen),
					barrierTS, ev.TS, laneCtrl, map[string]any{"resume_k": ev.K})
				barrierTS = 0
			}
		case flight.EvRejoinRound, flight.EvJoinRound:
			kind := "rejoin"
			if ev.Type == flight.EvJoinRound {
				kind = "join"
			}
			step := flight.RoundName(ev.Step)
			instant(kind+":"+step, ev.TS, laneCtrl,
				map[string]any{"round": ev.Arg, "watermark": ev.Inst})
			switch ev.Step {
			case flight.RoundAnnounce, flight.RoundReconnect, flight.RoundSync:
				if roundStart == 0 {
					roundStart, roundName = ev.TS, kind
				}
			case flight.RoundResume:
				if roundStart != 0 {
					span(fmt.Sprintf("%s round %d", roundName, ev.Arg),
						roundStart, ev.TS, laneCtrl, map[string]any{"watermark": ev.Inst})
					roundStart = 0
				}
			}
		case flight.EvWALFsync:
			st.fsyncs++
			instant("wal-fsync", ev.TS, laneCtrl, map[string]any{"records": ev.Arg})
		case flight.EvWALSnapshot:
			instant("wal-snapshot", ev.TS, laneCtrl, nil)
		case flight.EvWALRecover:
			instant("wal-recover", ev.TS, laneCtrl,
				map[string]any{"watermark": ev.K, "tail": ev.Inst, "replayed": ev.Arg})
		case flight.EvLinkDown, flight.EvLinkUp:
			instant(fmt.Sprintf("%s %d->%d", ev.Type, ev.Node, ev.Peer), ev.TS, laneCtrl, nil)
		case flight.EvAnomaly:
			st.anomalies++
			instant("anomaly: "+flight.ReasonName(ev.Arg), ev.TS, laneCtrl, nil)
		case flight.EvFrameSend, flight.EvFrameRecv:
			var key frameKey
			if ev.Type == flight.EvFrameSend {
				st.sends++
				key = frameKey{from: ev.Node, to: ev.Peer, inst: ev.Inst, step: ev.Step}
			} else {
				st.recvs++
				key = frameKey{from: ev.Peer, to: ev.Node, inst: ev.Inst, step: ev.Step}
			}
			fl := int64(laneOrphan)
			if k, ok := launchK[ev.Inst]; ok {
				fl = lane(k)
			}
			ref := frameRef{pid: p.pid, ts: ev.TS, bits: ev.Arg, lane: fl}
			m := sends
			if ev.Type == flight.EvFrameRecv {
				m = recvs
			}
			if _, dup := m[key]; dup {
				tl.dupKeys++
			} else {
				m[key] = ref
			}
		}
	}
	// Lane names come last per process so the walk above resolved K.
	lanes := map[int64]string{laneCtrl: "control", laneOrphan: "frames"}
	for _, k := range launchK {
		lanes[lane(k)] = fmt.Sprintf("inst %d", k)
	}
	tids := make([]int64, 0, len(lanes))
	for tid := range lanes {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		tl.events = append(tl.events, traceEvent{
			Name: "thread_name", Ph: "M", PID: p.pid, TID: tid,
			Args: map[string]any{"name": lanes[tid]},
		})
	}
}

// stitchFlows joins each send to its receive on the frame key and emits
// paired flow arrows (with 1µs anchor slices, which Chrome flows bind
// to). The earliest maxFlows pairs by send time go into the JSON; the
// statistics always cover every pair.
func (tl *timeline) stitchFlows(sends, recvs map[frameKey]frameRef, us func(int64) float64, maxFlows int) {
	type pair struct {
		key  frameKey
		s, r frameRef
	}
	var pairs []pair
	for key, s := range sends {
		r, ok := recvs[key]
		if !ok {
			tl.orphanSends++
			continue
		}
		pairs = append(pairs, pair{key, s, r})
	}
	tl.orphanRecvs = len(recvs) - len(pairs)
	tl.stitched = len(pairs)
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.s.ts != b.s.ts {
			return a.s.ts < b.s.ts
		}
		ka, kb := a.key, b.key
		if ka.from != kb.from {
			return ka.from < kb.from
		}
		if ka.to != kb.to {
			return ka.to < kb.to
		}
		if ka.inst != kb.inst {
			return ka.inst < kb.inst
		}
		return ka.step < kb.step
	})
	for i, pr := range pairs {
		ms := float64(pr.r.ts-pr.s.ts) / 1e6
		tl.flightSumMS += ms
		if ms > tl.flightMaxMS {
			tl.flightMaxMS = ms
		}
		if i >= maxFlows {
			tl.flowsCapped++
			continue
		}
		tl.flowsEmitted++
		name := fmt.Sprintf("frame %d→%d step %d", pr.key.from, pr.key.to, pr.key.step)
		id := i + 1
		tl.events = append(tl.events,
			traceEvent{Name: name, Ph: "X", TS: us(pr.s.ts), Dur: 1,
				PID: pr.s.pid, TID: pr.s.lane, Cat: "frame",
				Args: map[string]any{"bits": pr.s.bits}},
			traceEvent{Name: name, Ph: "s", TS: us(pr.s.ts),
				PID: pr.s.pid, TID: pr.s.lane, Cat: "frame", ID: id},
			traceEvent{Name: name, Ph: "X", TS: us(pr.r.ts), Dur: 1,
				PID: pr.r.pid, TID: pr.r.lane, Cat: "frame",
				Args: map[string]any{"bits": pr.r.bits}},
			traceEvent{Name: name, Ph: "f", BP: "e", TS: us(pr.r.ts),
				PID: pr.r.pid, TID: pr.r.lane, Cat: "frame", ID: id},
		)
	}
}

func writeReport(w io.Writer, procs []*process, tl *timeline) {
	pt := texttab.New("flight processes",
		"process", "pid", "events", "lost", "commits", "replays", "barriers", "anomalies", "sends", "recvs", "fsyncs")
	for _, p := range procs {
		lost := int64(p.dump.Meta.Total) - int64(len(p.dump.Events))
		if lost < 0 {
			lost = 0
		}
		pt.Addf(p.dump.Meta.Label, p.pid, len(p.dump.Events), lost,
			p.stat.commits, p.stat.replays, p.stat.barriers, p.stat.anomalies,
			p.stat.sends, p.stat.recvs, p.stat.fsyncs)
	}
	fmt.Fprint(w, pt.String())

	// Phase populations differ by design: a phase1-only plan (every
	// remaining node proven fault-free) commits straight after phase 1,
	// so equality/flags segments cover only the instances that ran the
	// full protocol — cells carry their own ×n when it is smaller.
	lt := texttab.New("per-phase latency, ms (mean over committed instances)",
		append([]string{"process", "inst"}, segColumns...)...)
	for _, p := range procs {
		row := []string{p.dump.Meta.Label, fmt.Sprint(p.stat.commits)}
		for _, col := range segColumns {
			st := p.stat.seg[col]
			switch {
			case st == nil || st.n == 0:
				row = append(row, "-")
			case st.n != p.stat.commits:
				row = append(row, fmt.Sprintf("%s ×%d", texttab.F(st.sum/float64(st.n)), st.n))
			default:
				row = append(row, texttab.F(st.sum/float64(st.n)))
			}
		}
		lt.Add(row...)
	}
	fmt.Fprint(w, lt.String())

	ft := texttab.New("frame stitching",
		"stitched", "orphan-sends", "orphan-recvs", "dup-keys", "mean-flight-ms", "max-flight-ms", "flows-in-json")
	mean := 0.0
	if tl.stitched > 0 {
		mean = tl.flightSumMS / float64(tl.stitched)
	}
	ft.Addf(tl.stitched, tl.orphanSends, tl.orphanRecvs, tl.dupKeys,
		mean, tl.flightMaxMS, tl.flowsEmitted)
	fmt.Fprint(w, ft.String())
	if tl.flowsCapped > 0 {
		fmt.Fprintf(w, "nabtrace: %d stitched frames beyond -max-flows omitted from the JSON (stats above cover all)\n", tl.flowsCapped)
	}
}
