package main

import "time"

// A metricDecl names one reported quantity. The end-to-end list below and
// BENCHMARK.json must agree on every field; bench_test.go checks it.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics carry none.
	Bound float64
	Help  string
}

// endToEnd are the quantities a user of a NAB session sees. The bounds come
// from the spread of ten seeds per workload on the seed-state machine, a
// 2-vCPU VM whose neighbours slow a run by a quarter for a minute every ten
// or so (README, "Steadiness"): every clocked metric gets the widest bound
// BENCHMARK.json may carry, the counted ones three times their widest
// interquartile range.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25, "median Open call -> every session open, over the 51 set-up cycles before the timed run"},
	{"commits_per_s", "1/s", "higher", 0.25, "verified commits in the measurement window / its length"},
	{"goodput_mbit_s", "Mbit/s", "higher", 0.25, "8 * L * commits_per_s / 1e6"},
	{"commit_latency_p50_ms", "ms", "lower", 0.25, "median Submit call -> receipt on Commits()"},
	{"commit_latency_tail_ms", "ms", "lower", 0.25, "the workload's fixed tail percentile of the same samples"},
	{"capacity_fraction", "ratio", "higher", 0.25, "payload bits per time unit / Theorem 2 bound; the unit is enforced by token buckets on paced_thin and is the 20us reference unit elsewhere"},
	{"cpu_ms_per_commit", "ms", "lower", 0.25, "process user+sys CPU over the window (getrusage) / commits"},
	{"allocs_per_commit", "count", "lower", 0.10, "heap objects allocated over the window / commits"},
	{"alloc_kb_per_commit", "KiB", "lower", 0.10, "heap bytes allocated over the window / commits"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "VmHWM at the end of the run"},
}

// failedOpsRatio is printed with the end-to-end metrics but is not declared
// in BENCHMARK.json: it is 0 on every healthy run, and the driver reads the
// same fact from the result's attempted and failed counts.
const failedOpsRatio = "failed_ops_ratio"

// perLayer are the single-layer quantities of the traced run. Source of
// each: K = a span the benchmark times around a public call at the
// workload's shape, R = delta of the nab_* registry over the window,
// F = flight-recorder events, P = process counters, B = the benchmark's own
// clock around Session calls.
var perLayer = []metricDecl{
	{Name: "gf.symbol_bits", Unit: "count", Better: "higher", Help: "K: degree m of the plan's field GF(2^m)"},
	{Name: "gf.axpy_ns_per_elem", Unit: "ns", Better: "lower", Help: "K: Field.AXPY over 1024 elements at that degree"},
	{Name: "gf.mulslice_ns_per_elem", Unit: "ns", Better: "lower", Help: "K: Field.MulSlice over 1024 elements at that degree"},
	{Name: "linalg.mulvecinto_ns", Unit: "ns", Better: "lower", Help: "K: Matrix.MulVecInto on the source's first edge matrix (rho x z_e)"},
	{Name: "coding.pack_ns_per_payload_byte", Unit: "ns", Better: "lower", Help: "K: coding.PackValue of every stripe of one value / L"},
	{Name: "coding.encode_ns_per_payload_byte", Unit: "ns", Better: "lower", Help: "K: Scheme.EncodeInto over the source's out-edges and all stripes / L"},
	{Name: "coding.check_ns_per_payload_byte", Unit: "ns", Better: "lower", Help: "K: Scheme.CheckInto over the source's in-edges and all stripes / L"},
	{Name: "coding.scheme_generate_ms", Unit: "ms", Better: "lower", Help: "K: coding.GenerateVerified on G_1"},
	{Name: "coding.scheme_tries", Unit: "count", Better: "lower", Help: "K: draws that call needed"},
	{Name: "spantree.pack_ms", Unit: "ms", Better: "lower", Help: "K: spantree.PackArborescences(G_1, source, gamma)"},
	{Name: "capacity.analyze_ms", Unit: "ms", Better: "lower", Help: "K: capacity.Analyze"},
	{Name: "relay.table_build_ms", Unit: "ms", Better: "lower", Help: "K: relay.NewTable(G, 2f+1)"},
	{Name: "bb.broadcast_ms", Unit: "ms", Better: "lower", Help: "K: one n-node, tolerance-f EIG flag broadcast on the lockstep simulator"},
	{Name: "bb.allocs_per_broadcast", Unit: "count", Better: "lower", Help: "K: heap objects that broadcast allocated"},
	{Name: "core.plan_instance_ms", Unit: "ms", Better: "lower", Help: "K: Protocol.PlanInstance on the instance-1 state"},
	{Name: "core.lockstep_instance_ms", Unit: "ms", Better: "lower", Help: "K: Runner.RunInstance, the single-thread baseline"},
	{Name: "core.phase1_share", Unit: "ratio", Better: "lower", Help: "F: Phase 1 share of launch->commit"},
	{Name: "core.equality_share", Unit: "ratio", Better: "lower", Help: "F: equality-check share of launch->commit"},
	{Name: "core.flags_share", Unit: "ratio", Better: "lower", Help: "F: flag-broadcast share of launch->commit"},
	{Name: "core.claims_share", Unit: "ratio", Better: "lower", Help: "F: Phase 3 share of launch->commit"},
	{Name: "core.model_bits_per_commit", Unit: "bits", Better: "lower", Help: "InstanceResult.TotalBits summed over hosts, mean over the window's commits"},
	{Name: "core.model_capacity_fraction", Unit: "ratio", Better: "higher", Help: "runtime.NewReport: pipelined model-time throughput / Theorem 2 bound"},
	{Name: "core.pipeline_predicted_fraction", Unit: "ratio", Better: "higher", Help: "core.ScheduleFromInstance(...).Throughput / Theorem 2 bound"},
	{Name: "runtime.launch_to_commit_ms_p50", Unit: "ms", Better: "lower", Help: "F: EvLaunch -> EvCommit"},
	{Name: "runtime.window_occupancy", Unit: "count", Better: "higher", Help: "F: mean executions in flight per session"},
	{Name: "runtime.replays_per_commit", Unit: "ratio", Better: "lower", Help: "R: nab_runtime_replays_total / commits"},
	{Name: "runtime.barriers_per_commit", Unit: "ratio", Better: "lower", Help: "R: nab_runtime_barriers_total / commits"},
	{Name: "transport.frames_per_commit", Unit: "count", Better: "lower", Help: "R: sum of nab_transport_frames_sent_total / commits"},
	{Name: "transport.link_bits_per_payload_bit", Unit: "ratio", Better: "lower", Help: "R: sum of nab_transport_link_bits_total / (8 L commits)"},
	{Name: "transport.busiest_link_share", Unit: "ratio", Better: "lower", Help: "R: largest link's share of the charged bits"},
	{Name: "transport.frames_per_flush", Unit: "count", Better: "higher", Help: "R: writer frames / coalesced flushes (TCP only)"},
	{Name: "transport.pacer_stall_ms_per_commit", Unit: "ms", Better: "lower", Help: "R: nab_transport_pacer_stall_seconds sum / commits"},
	{Name: "transport.thin_link_utilization", Unit: "ratio", Better: "higher", Help: "R: thinnest link's charged bits / (z_e * elapsed time units), paced only"},
	{Name: "transport.encode_ns_per_frame", Unit: "ns", Better: "lower", Help: "K: AppendFrame on a Phase 1 message of the workload's block size"},
	{Name: "transport.decode_ns_per_frame", Unit: "ns", Better: "lower", Help: "K: Decode of that frame"},
	{Name: "transport.chan_hop_us", Unit: "us", Better: "lower", Help: "K: one frame Send -> Recv on the in-process bus"},
	{Name: "transport.tcp_hop_us", Unit: "us", Better: "lower", Help: "K: one frame Send -> Recv over loopback TCP"},
	{Name: "wal.appends_per_commit", Unit: "count", Better: "lower", Help: "R: nab_wal_appends_total / commits"},
	{Name: "wal.bytes_per_commit", Unit: "count", Better: "lower", Help: "R: nab_wal_append_bytes_total / commits"},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower", Help: "R: nab_wal_fsync_seconds count / commits"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher", Help: "R: nab_wal_fsync_batch_records sum / count"},
	{Name: "wal.fsync_ms_p50", Unit: "ms", Better: "lower", Help: "R: nab_wal_fsync_seconds median, interpolated inside its bucket"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower", Help: "K: Log.Append of one commit record, no fsync"},
	{Name: "wal.recover_ms_per_instance", Unit: "ms", Better: "lower", Help: "K: nab.Recover over the run's own log / replayed commits"},
	{Name: "cluster.boot_ms", Unit: "ms", Better: "lower", Help: "B: first Open call -> all sessions open"},
	{Name: "cluster.follower_lag_ms_p50", Unit: "ms", Better: "lower", Help: "B: commit k at the slowest fault-free host - at the source host"},
	{Name: "cluster.follower_lag_ms_p99", Unit: "ms", Better: "lower", Help: "B: the same, 99th percentile"},
	{Name: "cluster.excluded_host_lag_ms_p50", Unit: "ms", Better: "lower", Help: "B: commit k at the excluded node's host - at the source host"},
	{Name: "session.submit_wait_ms_p99", Unit: "ms", Better: "lower", Help: "B: duration of the Submit call"},
	{Name: "session.queue_ms_p50", Unit: "ms", Better: "lower", Help: "B+F: Submit call -> EvLaunch"},
	{Name: "session.first_commit_ms", Unit: "ms", Better: "lower", Help: "B: Open call -> first commit (lazy planning included)"},
	{Name: "session.close_ms", Unit: "ms", Better: "lower", Help: "B: Drain + Close at the end of the run"},
	{Name: "proc.gc_cpu_share", Unit: "ratio", Better: "lower", Help: "P: GC CPU seconds / process CPU seconds over the window"},
	{Name: "proc.gc_cycles_per_kcommit", Unit: "count", Better: "lower", Help: "P: GC cycles per 1000 commits"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower", Help: "P: most goroutines seen at a commit"},
	{Name: "budget.bb_cpu_share", Unit: "ratio", Better: "lower", Help: "bb.broadcast_ms * broadcasts per commit / traced cpu per commit"},
	{Name: "budget.coding_cpu_share", Unit: "ratio", Better: "lower", Help: "coding pack+encode+check at every fault-free node / traced cpu per commit (covers linalg and gf)"},
	{Name: "budget.attributed_cpu_ratio", Unit: "ratio", Better: "higher", Help: "sum of coding, bb, wire encode/decode and wal append costs / traced cpu per commit"},
	{Name: "budget.unattributed_cpu_ms", Unit: "ms", Better: "lower", Help: "traced cpu per commit - attributed"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Help: "traced / untraced commits_per_s"},
}

// refTimeUnit converts wall-clock seconds into the paper's time units for
// capacity_fraction: one unit moves one bit over a capacity-1 link.
// paced_thin enforces it with token buckets; the unpaced workloads report
// the software ceiling against the same reference network.
const refTimeUnit = 20 * time.Microsecond

// loopWindow is W: submissions each closed loop keeps outstanding, and
// the pipeline window of every session.
const loopWindow = 4
