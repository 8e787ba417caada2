package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nab"
	"nab/internal/core"
	"nab/internal/flight"
)

// perLayerMetrics derives every declared per-layer metric from one traced
// run: the kernel spans (K), the registry's delta over the window (R), the
// stitched flight events (F), the process counters at the window's ends
// (P) and the benchmark's own clocks (B). Metrics that do not apply to a
// workload (WAL counters without a WAL, follower lag without followers)
// are reported as 0. untracedCPS is the commits_per_s of the untraced
// reference the overhead ratio is taken against.
func perLayerMetrics(w *workload, res *runResult, untracedCPS float64) (map[string]float64, error) {
	td, m := res.traceData, res.meter
	if td.scrapeErr != nil {
		return nil, fmt.Errorf("registry scrape: %w", td.scrapeErr)
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for name, v := range td.kernels.metrics {
		out[name] = v
	}
	g, err := w.graph()
	if err != nil {
		return nil, err
	}
	commits := float64(len(m.recs))
	first, last := m.marks[0], m.marks[len(m.marks)-1]
	elapsed := last.at.Sub(first.at).Seconds()
	sessions := float64(max(1, len(td.streams)))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// R: the registry over the window.
	reg := td.endReg.since(td.startReg)
	out["runtime.replays_per_commit"] = reg["nab_runtime_replays_total"] / sessions / commits
	out["runtime.barriers_per_commit"] = reg["nab_runtime_barriers_total"] / sessions / commits
	out["transport.frames_per_commit"] = reg.sumPrefix("nab_transport_frames_sent_total") / commits
	linkBits := reg.sumPrefix("nab_transport_link_bits_total")
	out["transport.link_bits_per_payload_bit"] = linkBits / (8 * float64(w.Len) * commits)
	busiest := 0.0
	for k, v := range reg {
		if strings.HasPrefix(k, "nab_transport_link_bits_total{") {
			busiest = max(busiest, v)
		}
	}
	out["transport.busiest_link_share"] = ratio(busiest, linkBits)
	out["transport.frames_per_flush"] = ratio(reg["nab_transport_writer_frames_total"], reg["nab_transport_flushes_total"])
	out["transport.pacer_stall_ms_per_commit"] = 1e3 * reg["nab_transport_pacer_stall_seconds_sum"] / commits
	if w.TimeUnit > 0 {
		thin := g.Edges()[0]
		for _, e := range g.Edges() {
			if e.Cap < thin.Cap {
				thin = e
			}
		}
		bits := reg[`nab_transport_link_bits_total{link="`+strconv.Itoa(int(thin.From))+"->"+strconv.Itoa(int(thin.To))+`"}`]
		out["transport.thin_link_utilization"] = bits / (float64(thin.Cap) * elapsed / w.TimeUnit.Seconds())
	}
	out["wal.appends_per_commit"] = reg["nab_wal_appends_total"] / commits
	out["wal.bytes_per_commit"] = reg["nab_wal_append_bytes_total"] / commits
	out["wal.fsyncs_per_commit"] = reg["nab_wal_fsync_seconds_count"] / commits
	out["wal.records_per_fsync"] = ratio(reg["nab_wal_fsync_batch_records_sum"], reg["nab_wal_fsync_batch_records_count"])
	out["wal.fsync_ms_p50"] = 1e3 * reg.histQuantile("nab_wal_fsync_seconds", 0.5)
	out["wal.recover_ms_per_instance"] = td.recoverMsPerInstance

	// F: flight events, stitched per commit.
	its := td.stitch(m.recs)
	td.buildSpans(m.recs, its)
	var launchToCommit, queue []float64
	var phaseNs [flight.PhaseClaims + 1]float64
	total := 0.0
	for i, it := range its {
		if it.launch == 0 || it.commit == 0 {
			continue
		}
		launchToCommit = append(launchToCommit, float64(it.commit-it.launch)/1e6)
		queue = append(queue, float64(it.launch-m.recs[i].submit.UnixNano())/1e6)
		total += float64(it.commit - it.launch)
		prev := uint32(0)
		for code := flight.Phase1; code <= flight.PhaseClaims; code++ {
			if it.phase[code] == 0 {
				continue
			}
			if prev != 0 {
				phaseNs[prev] += float64(it.phase[code] - it.phase[prev])
			}
			prev = code
		}
		if prev != 0 {
			phaseNs[prev] += float64(it.commit - it.phase[prev])
		}
	}
	if len(launchToCommit) == 0 {
		return nil, fmt.Errorf("no commit of the window could be stitched to its flight events")
	}
	out["core.phase1_share"] = phaseNs[flight.Phase1] / total
	out["core.equality_share"] = phaseNs[flight.PhaseEquality] / total
	out["core.flags_share"] = phaseNs[flight.PhaseFlags] / total
	out["core.claims_share"] = phaseNs[flight.PhaseClaims] / total
	out["runtime.launch_to_commit_ms_p50"] = median(launchToCommit)
	out["session.queue_ms_p50"] = median(queue)
	lo, hi := first.at.UnixNano(), last.at.UnixNano()
	occupancy, phaseRuns := td.windowOccupancy(lo, hi)
	out["runtime.window_occupancy"] = occupancy / sessions

	// P: process counters between the window's first and last mark.
	out["proc.gc_cpu_share"] = ratio(last.proc.gcCPUSec-first.proc.gcCPUSec, last.proc.cpuSec-first.proc.cpuSec)
	out["proc.gc_cycles_per_kcommit"] = 1e3 * (last.proc.gcCycles - first.proc.gcCycles) / commits
	out["proc.goroutines_peak"] = float64(m.goroutinesPeak)

	// B: the benchmark's clocks around Session calls.
	out["session.submit_wait_ms_p99"] = percentile(sorted(td.waits), 0.99)
	out["session.first_commit_ms"] = ms(m.firstCommit)
	out["session.close_ms"] = td.closeMs
	out["cluster.boot_ms"] = td.bootMs
	if len(td.streams) > 1 {
		var follower, excluded []float64
		src := td.streams[0].recvAt
		for _, r := range m.recs {
			var worstFollower, worstExcluded float64
			for _, st := range td.streams[1:] {
				if r.seq > len(st.recvAt) {
					continue
				}
				lag := ms(st.recvAt[r.seq-1].Sub(src[r.seq-1]))
				if len(st.h.verify) > 0 {
					worstFollower = max(worstFollower, lag)
				} else {
					worstExcluded = max(worstExcluded, lag)
				}
			}
			follower = append(follower, worstFollower)
			excluded = append(excluded, worstExcluded)
		}
		follower = sorted(follower)
		out["cluster.follower_lag_ms_p50"] = percentile(follower, 0.50)
		out["cluster.follower_lag_ms_p99"] = percentile(follower, 0.99)
		out["cluster.excluded_host_lag_ms_p50"] = percentile(sorted(excluded), 0.50)
	}

	// Model-time accounting: exact bit counts, no clocks involved.
	modelBits := m.modelBits
	for _, st := range td.streams[min(1, len(td.streams)):] {
		// A cluster host's report charges only the bits its own nodes sent.
		for _, r := range m.recs {
			if r.seq <= len(st.bits) {
				modelBits += float64(st.bits[r.seq-1])
			}
		}
	}
	out["core.model_bits_per_commit"] = modelBits / commits
	if td.sessionResult != nil {
		rep := nab.NewPipelineReport(g, td.sessionResult, td.capRep)
		out["core.model_capacity_fraction"] = ratio(rep.PipelinedThroughput, td.capRep.CapacityUB)
	}
	// What Appendix D's pipeline schedule predicts for the lockstep instance.
	predicted, err := core.ScheduleFromInstance(td.kernels.lockstep).Throughput(8*w.Len, 1<<20)
	if err != nil {
		return nil, err
	}
	out["core.pipeline_predicted_fraction"] = predicted / td.capRep.CapacityUB

	// Budget: kernel cost x how often the window ran it, against the
	// window's CPU. Phase counts come from the flight events, so
	// Phase-1-only instances charge no coding and no broadcast.
	cpuMs := res.Metrics["cpu_ms_per_commit"]
	perCommit := func(code uint32) float64 { return phaseRuns[code] / sessions / commits }
	active := float64(len(w.faultFree(g.Nodes())))
	codingMs := perCommit(flight.PhaseEquality) * active * float64(w.Len) *
		(out["coding.pack_ns_per_payload_byte"] + out["coding.encode_ns_per_payload_byte"] + out["coding.check_ns_per_payload_byte"]) / 1e6
	bbMs := (perCommit(flight.PhaseFlags) + perCommit(flight.PhaseClaims)) * out["bb.broadcast_ms"]
	wireMs := 0.0
	if w.TCP {
		wireMs = out["transport.frames_per_commit"] * (out["transport.encode_ns_per_frame"] + out["transport.decode_ns_per_frame"]) / 1e6
	}
	walMs := out["wal.appends_per_commit"] * out["wal.append_ns"] / 1e6
	attributed := codingMs + bbMs + wireMs + walMs
	out["budget.coding_cpu_share"] = ratio(codingMs, cpuMs)
	out["budget.bb_cpu_share"] = ratio(bbMs, cpuMs)
	out["budget.attributed_cpu_ratio"] = ratio(attributed, cpuMs)
	out["budget.unattributed_cpu_ms"] = cpuMs - attributed
	out["trace.overhead_ratio"] = ratio(res.Metrics["commits_per_s"], untracedCPS)
	return out, nil
}

// windowOccupancy integrates the number of executions in flight over
// [lo, hi] (Unix ns) from launch, commit and replay events, and counts how
// many times each protocol phase started inside the interval.
func (td *traceData) windowOccupancy(lo, hi int64) (mean float64, phaseRuns [flight.PhaseClaims + 1]float64) {
	td.tap.mu.Lock()
	evs := append([]flight.Event(nil), td.tap.events...)
	td.tap.mu.Unlock()
	// Every Open re-arms the recorder with a fresh ring, which restarts
	// Seq; wall-clock order is the one that spans the sessions of a churn.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	level, area, at := 0.0, 0.0, lo
	for _, ev := range evs {
		if ev.TS > hi {
			break
		}
		delta := 0.0
		switch ev.Type {
		case flight.EvLaunch:
			delta = 1
		case flight.EvCommit, flight.EvReplay:
			delta = -1
		case flight.EvPhase:
			if ev.TS >= lo && ev.TS <= hi && int(ev.Step) < len(phaseRuns) {
				phaseRuns[ev.Step]++
			}
			continue
		default:
			continue
		}
		if ev.TS > lo && ev.TS <= hi {
			area += level * float64(ev.TS-at)
			at = ev.TS
		}
		level += delta
	}
	area += level * float64(hi-at)
	return area / float64(hi-lo), phaseRuns
}
