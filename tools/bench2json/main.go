// Command bench2json measures lockstep vs pipelined instance rates on the
// benchmark topologies and writes a machine-readable BENCH_pipeline.json,
// seeding the repo's performance trajectory. EXPERIMENTS.md quotes its
// output.
//
//	go run ./tools/bench2json -q 32 -window 4 -out BENCH_pipeline.json
//
// With -cluster it additionally builds cmd/nabnode (via the go tool) and
// measures a true multi-process cluster — one OS process per node over
// real TCP — on the same workloads, recording loopback-vs-multi-process
// throughput side by side.
//
// Every run also records the coding hot-path kernel rows (ns_per_op and
// allocs_per_op for the GF products, the coded-symbol vector product and
// the Encode+Check round trip), so the kernel trajectory is tracked in the
// same file as the engine rows.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"nab"
	"nab/internal/coding"
	"nab/internal/core"
	"nab/internal/flight"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/linalg"
	"nab/internal/metrics"
	"nab/internal/wal"
)

// Row is one topology's lockstep-vs-pipelined measurement.
type Row struct {
	Topology     string  `json:"topology"`
	Nodes        int     `json:"nodes"`
	F            int     `json:"f"`
	LenBytes     int     `json:"lenBytes"`
	Instances    int     `json:"instances"`
	Window       int     `json:"window"`
	LockstepIPS  float64 `json:"lockstep_instances_per_sec"`
	PipelinedIPS float64 `json:"pipelined_instances_per_sec"`
	Speedup      float64 `json:"speedup"`
	Replays      int     `json:"replays"`
	// ClusterIPS is the multi-process rate (one OS process per node over
	// real TCP), present only with -cluster.
	ClusterIPS float64 `json:"cluster_instances_per_sec,omitempty"`
	// StreamSubmitIPS / StreamCommitIPS measure a sustained Session fed
	// open-loop (submit as fast as backpressure admits, commits consumed
	// concurrently): the accepted-submission rate and the end-to-end
	// commit rate. Present only with -stream.
	StreamSubmitIPS float64 `json:"stream_submit_per_sec,omitempty"`
	StreamCommitIPS float64 `json:"stream_commit_per_sec,omitempty"`
	// DurableCommitIPS is the end-to-end commit rate of the same stream
	// with a write-ahead log underneath (submissions fsynced on accept,
	// commits batch-synced) — the price of crash-recovery. Present only
	// with -wal.
	DurableCommitIPS float64 `json:"durable_commit_per_sec,omitempty"`
	// FlightPipelinedIPS is the pipelined rate of the same workload with
	// the flight recorder armed — compared against PipelinedIPS it is the
	// recorder's whole-run overhead. Present only with -flight.
	FlightPipelinedIPS float64 `json:"flight_pipelined_instances_per_sec,omitempty"`
}

// KernelRow is one arithmetic/coding kernel measurement, recorded so the
// hot-path performance trajectory is machine-readable alongside the
// engine throughput rows.
type KernelRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// MetricsRow is one topology's live-instrument snapshot (present with
// -metrics): latency quantiles read from the session's histograms plus
// wire totals from the per-link transport counters, captured over one
// pipelined streaming run with the metrics registry reset beforehand —
// the same numbers a /metrics scrape of a live daemon reports.
type MetricsRow struct {
	Topology        string  `json:"topology"`
	CommitP50Ms     float64 `json:"commit_p50_ms"`
	CommitP99Ms     float64 `json:"commit_p99_ms"`
	SubmitWaitP99Ms float64 `json:"submit_wait_p99_ms"`
	// FsyncP99Ms / WALAppendBytes are present when the measured stream is
	// durable (-wal): the group-committed fsync tail latency and total
	// bytes appended to the log.
	FsyncP99Ms     float64 `json:"fsync_p99_ms,omitempty"`
	WALAppendBytes int64   `json:"wal_append_bytes,omitempty"`
	// LinkBits is the capacity-charged bits sent per directed link,
	// keyed "from->to" as in the nab_transport_link_bits_total labels.
	LinkBits map[string]int64 `json:"link_bits,omitempty"`
}

// SnapshotRow compares the two ways a blank process reconstructs the
// engine state at watermark n during a join (present with -snapshot):
// folding the full commit history record by record — the WAL-tail
// fallback — versus decoding one snapshot and seeding the builder from
// it. The byte columns are what the control plane would ship either way.
type SnapshotRow struct {
	Instances     int     `json:"instances"`
	ReplayMs      float64 `json:"full_replay_ms"`
	ReplayBytes   int     `json:"full_replay_bytes"`
	SnapshotMs    float64 `json:"snapshot_restore_ms"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	Speedup       float64 `json:"speedup"`
}

// Output is the file's top-level shape.
type Output struct {
	Bench   string      `json:"bench"`
	Seed    int64       `json:"seed"`
	Rows    []Row       `json:"rows"`
	Kernels []KernelRow `json:"kernels,omitempty"`
	// Wal rows (present with -wal) track the durability subsystem: the
	// zero-allocation commit-record append, the serial vs group-committed
	// fsync path, and session recovery replay per committed instance.
	Wal []KernelRow `json:"wal,omitempty"`
	// Metrics rows (present with -metrics) carry the latency trajectory:
	// commit/submit-wait quantiles and per-link wire totals.
	Metrics []MetricsRow `json:"metrics,omitempty"`
	// Snapshot rows (present with -snapshot) compare join-time state
	// reconstruction: snapshot restore vs full fold-record replay.
	Snapshot []SnapshotRow `json:"snapshot,omitempty"`
	// Flight rows (present with -flight) track the flight recorder's hot
	// path: record cost armed and disarmed, and full-ring dump latency.
	Flight []KernelRow `json:"flight,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench2json", flag.ContinueOnError)
	out := fs.String("out", "BENCH_pipeline.json", "output path (- for stdout)")
	q := fs.Int("q", 32, "instances per measurement")
	lenBytes := fs.Int("len", 64, "input length in bytes")
	window := fs.Int("window", 4, "pipeline window")
	seed := fs.Int64("seed", 2012, "coding-matrix seed")
	withCluster := fs.Bool("cluster", false, "also measure a multi-process cluster (builds cmd/nabnode)")
	withStream := fs.Bool("stream", false, "also measure sustained streaming-session throughput (open-loop submit vs commit rate)")
	withWal := fs.Bool("wal", false, "also measure the durability subsystem: WAL append/fsync-batching rows, durable commit rate per topology, recovery replay time")
	withMetrics := fs.Bool("metrics", false, "also record live-instrument rows per topology: commit-latency p50/p99, submit-wait p99, fsync p99 (with -wal) and per-link wire bits")
	withSnapshot := fs.Bool("snapshot", false, "also measure join-time state reconstruction: snapshot restore vs full fold-record replay at 1k/10k/100k committed instances")
	withFlight := fs.Bool("flight", false, "also measure the flight recorder: record ns/op armed and disarmed, full-ring dump latency, and per-topology commit rate with the recorder on")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var nabnode string
	if *withCluster {
		bin, cleanup, err := buildNabnode()
		if err != nil {
			return err
		}
		defer cleanup()
		nabnode = bin
	}

	circ, err := nab.CirculantGraph(9, 1, 1, 2)
	if err != nil {
		return err
	}
	thin, err := nab.OneThinLinkGraph(7, 2, 3, 8, 1)
	if err != nil {
		return err
	}
	topos := []struct {
		name string
		g    *nab.Graph
		f    int
	}{
		{"CompleteGraph(7,1)", nab.CompleteGraph(7, 1), 2},
		{"Circulant(9,1,{1,2})", circ, 1},
		{"OneThinLink(7)", thin, 1},
	}

	inputs := make([][]byte, *q)
	for i := range inputs {
		inputs[i] = make([]byte, *lenBytes)
		for j := range inputs[i] {
			inputs[i][j] = byte(i + j)
		}
	}

	res := Output{Bench: "lockstep-vs-pipelined", Seed: *seed}
	for _, tp := range topos {
		cfg := nab.Config{Graph: tp.g, Source: 1, F: tp.f, LenBytes: *lenBytes, Seed: *seed}

		runner, err := nab.NewRunner(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", tp.name, err)
		}
		start := time.Now()
		if _, err := runner.Run(inputs); err != nil {
			return fmt.Errorf("%s: lockstep: %w", tp.name, err)
		}
		lockIPS := float64(*q) / time.Since(start).Seconds()

		pres, err := sessionRun(cfg, inputs, nab.WithWindow(*window))
		if err != nil {
			return fmt.Errorf("%s: pipelined: %w", tp.name, err)
		}

		row := Row{
			Topology: tp.name, Nodes: tp.g.NumNodes(), F: tp.f,
			LenBytes: *lenBytes, Instances: *q, Window: *window,
			LockstepIPS:  lockIPS,
			PipelinedIPS: pres.InstancesPerSec(),
			Speedup:      pres.InstancesPerSec() / lockIPS,
			Replays:      pres.Replays,
		}
		if nabnode != "" {
			row.ClusterIPS, err = clusterIPS(nabnode, tp.g, tp.f, *lenBytes, *q, *window, *seed)
			if err != nil {
				return fmt.Errorf("%s: cluster: %w", tp.name, err)
			}
		}
		if *withStream {
			row.StreamSubmitIPS, row.StreamCommitIPS, err = streamIPS(cfg, *window, inputs, "")
			if err != nil {
				return fmt.Errorf("%s: stream: %w", tp.name, err)
			}
		}
		if *withWal {
			dir, err := os.MkdirTemp("", "bench2json-wal-*")
			if err != nil {
				return err
			}
			_, row.DurableCommitIPS, err = streamIPS(cfg, *window, inputs, dir)
			os.RemoveAll(dir)
			if err != nil {
				return fmt.Errorf("%s: durable stream: %w", tp.name, err)
			}
		}
		if *withFlight {
			fres, err := sessionRun(cfg, inputs, nab.WithWindow(*window), nab.WithFlightRecorder(1<<16))
			flight.Default().Disable() // the recorder is process-global; disarm between rows
			if err != nil {
				return fmt.Errorf("%s: flight-recorded: %w", tp.name, err)
			}
			row.FlightPipelinedIPS = fres.InstancesPerSec()
		}
		if *withMetrics {
			walDir := ""
			if *withWal {
				dir, err := os.MkdirTemp("", "bench2json-metrics-wal-*")
				if err != nil {
					return err
				}
				walDir = dir
			}
			mrow, err := metricsRow(tp.name, cfg, *window, inputs, walDir)
			if walDir != "" {
				os.RemoveAll(walDir)
			}
			if err != nil {
				return fmt.Errorf("%s: metrics: %w", tp.name, err)
			}
			res.Metrics = append(res.Metrics, mrow)
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(w, "%-22s lockstep %7.1f/s  pipelined %7.1f/s  speedup %.2fx",
			row.Topology, row.LockstepIPS, row.PipelinedIPS, row.Speedup)
		if nabnode != "" {
			fmt.Fprintf(w, "  multiprocess %7.1f/s", row.ClusterIPS)
		}
		if *withStream {
			fmt.Fprintf(w, "  stream submit %7.1f/s commit %7.1f/s", row.StreamSubmitIPS, row.StreamCommitIPS)
		}
		if *withWal {
			fmt.Fprintf(w, "  durable commit %7.1f/s", row.DurableCommitIPS)
		}
		if *withFlight {
			fmt.Fprintf(w, "  flight-on %7.1f/s (%.1f%%)", row.FlightPipelinedIPS,
				100*row.FlightPipelinedIPS/row.PipelinedIPS)
		}
		fmt.Fprintln(w)
		if *withMetrics {
			m := res.Metrics[len(res.Metrics)-1]
			fmt.Fprintf(w, "%-22s commit p50 %6.2fms  p99 %6.2fms  submit-wait p99 %6.2fms",
				"", m.CommitP50Ms, m.CommitP99Ms, m.SubmitWaitP99Ms)
			if *withWal {
				fmt.Fprintf(w, "  fsync p99 %6.2fms", m.FsyncP99Ms)
			}
			fmt.Fprintf(w, "  links %d\n", len(m.LinkBits))
		}
	}

	if *withWal {
		res.Wal, err = walRows(*lenBytes)
		if err != nil {
			return err
		}
		for _, kr := range res.Wal {
			fmt.Fprintf(w, "%-34s %10.1f ns/op  %3d allocs/op\n", kr.Name, kr.NsPerOp, kr.AllocsPerOp)
		}
	}

	if *withSnapshot {
		res.Snapshot, err = snapshotRows()
		if err != nil {
			return err
		}
		for _, sr := range res.Snapshot {
			fmt.Fprintf(w, "join-state @%-7d replay %9.3fms (%8d B)  snapshot %7.3fms (%4d B)  %.0fx\n",
				sr.Instances, sr.ReplayMs, sr.ReplayBytes, sr.SnapshotMs, sr.SnapshotBytes, sr.Speedup)
		}
	}

	if *withFlight {
		res.Flight = flightRows()
		for _, kr := range res.Flight {
			fmt.Fprintf(w, "%-34s %10.1f ns/op  %3d allocs/op\n", kr.Name, kr.NsPerOp, kr.AllocsPerOp)
		}
	}

	res.Kernels, err = kernelRows(*seed)
	if err != nil {
		return err
	}
	for _, kr := range res.Kernels {
		fmt.Fprintf(w, "%-34s %10.1f ns/op  %3d allocs/op\n", kr.Name, kr.NsPerOp, kr.AllocsPerOp)
	}

	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out == "-" {
		_, err = w.Write(raw)
		return err
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", *out)
	return nil
}

// kernelRows measures the coding hot-path kernels in-process via
// testing.Benchmark: the scalar field product in both regimes (tables for
// GF(2^16), carry-less windows for GF(2^64)), the coded-symbol vector
// product at OneThinLink dimensions, and the per-edge Encode+Check round
// trip — the operations every NAB equality check reduces to. allocs_per_op
// of the steady-state rows is pinned at 0 by TestEncodeCheckZeroAlloc.
func kernelRows(seed int64) ([]KernelRow, error) {
	rng := rand.New(rand.NewSource(seed))

	f16 := gf.MustNew(16)
	f64 := gf.MustNew(64)
	elems := func(f *gf.Field, n int) []gf.Elem {
		out := make([]gf.Elem, n)
		for i := range out {
			for out[i] == 0 {
				out[i] = f.Rand(rng)
			}
		}
		return out
	}

	// A rho x z_e matrix at the OneThinLink(7) shape: 33 symbols encoded
	// onto a capacity-8 edge over GF(2^16).
	mat, err := linalg.Random(f16, 33, 8, rng)
	if err != nil {
		return nil, err
	}
	vec := elems(f16, 33)
	vecDst := make([]gf.Elem, 8)

	// A verified scheme on a small complete graph for the Encode+Check
	// round trip (rho = 2, unit capacities).
	g := graph.NewDirected()
	for _, pair := range [][2]graph.NodeID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}} {
		if err := g.AddBiEdge(pair[0], pair[1], 2); err != nil {
			return nil, err
		}
	}
	scheme, _, err := coding.GenerateVerified(g, 2, f16, []*graph.Directed{g}, rng, 16)
	if err != nil {
		return nil, err
	}
	x := elems(f16, 2)
	enc := make([]gf.Elem, 2)
	if err := scheme.EncodeInto(1, 2, x, enc); err != nil {
		return nil, err
	}
	y := append([]gf.Elem(nil), enc...)
	scratch := make([]gf.Elem, scheme.MaxCap())

	xs16, xs64 := elems(f16, 1024), elems(f64, 1024)
	var sink gf.Elem
	bench := func(name string, fn func(b *testing.B)) KernelRow {
		r := testing.Benchmark(fn)
		return KernelRow{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	rows := []KernelRow{
		bench("gf.Mul/GF16-table", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink ^= f16.Mul(xs16[i&1023], xs16[(i+7)&1023])
			}
		}),
		bench("gf.Mul/GF64-clmul", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink ^= f64.Mul(xs64[i&1023], xs64[(i+7)&1023])
			}
		}),
		bench("linalg.MulVecInto/GF16-33x8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mat.MulVecInto(vec, vecDst); err != nil {
					b.Fatal(err)
				}
			}
		}),
		bench("coding.EncodeInto+Check/GF16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := scheme.EncodeInto(1, 2, x, enc); err != nil {
					b.Fatal(err)
				}
				mm, err := scheme.CheckInto(1, 2, x, y, scratch)
				if err != nil || mm {
					b.Fatalf("check: mismatch=%v err=%v", mm, err)
				}
			}
		}),
	}
	_ = sink
	return rows, nil
}

// sessionRun executes the workload on one Session and returns the
// aggregate result — the streaming-first replacement for the deprecated
// batch Run entrypoints.
func sessionRun(cfg nab.Config, inputs [][]byte, opts ...nab.SessionOption) (*nab.PipelineResult, error) {
	ctx := context.Background()
	sess, err := nab.Open(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	go func() {
		for _, in := range inputs {
			if _, err := sess.Submit(ctx, in); err != nil {
				return
			}
		}
		sess.Drain(ctx)
	}()
	for range sess.Commits() {
	}
	if err := sess.Err(); err != nil {
		return nil, err
	}
	res := sess.Result()
	if res == nil || res.Committed() != len(inputs) {
		return nil, fmt.Errorf("session committed %d instances, want %d", res.Committed(), len(inputs))
	}
	return res, nil
}

// streamIPS drives a Session open-loop over the workload: a producer
// submits as fast as backpressure admits while the consumer drains
// commits concurrently. Returns the accepted-submission rate and the
// end-to-end commit rate (both wall-clock). A non-empty walDir opens the
// session durably — the fsync-batched crash-recovery configuration.
func streamIPS(cfg nab.Config, window int, inputs [][]byte, walDir string) (submitPerSec, commitPerSec float64, err error) {
	opts := []nab.SessionOption{nab.WithWindow(window)}
	if walDir != "" {
		opts = append(opts, nab.WithDurability(walDir))
	}
	sess, err := nab.Open(context.Background(), cfg, opts...)
	if err != nil {
		return 0, 0, err
	}
	defer sess.Close()
	ctx := context.Background()
	start := time.Now()
	var submitWall time.Duration
	submitErr := make(chan error, 1)
	go func() {
		for _, in := range inputs {
			if _, err := sess.Submit(ctx, in); err != nil {
				submitErr <- err
				return
			}
		}
		submitWall = time.Since(start)
		submitErr <- sess.Drain(ctx)
	}()
	got := 0
	for range sess.Commits() {
		got++
	}
	commitWall := time.Since(start)
	if err := <-submitErr; err != nil {
		return 0, 0, err
	}
	if err := sess.Err(); err != nil {
		return 0, 0, err
	}
	if got != len(inputs) {
		return 0, 0, fmt.Errorf("streamed %d commits, want %d", got, len(inputs))
	}
	return float64(len(inputs)) / submitWall.Seconds(), float64(got) / commitWall.Seconds(), nil
}

// metricsRow streams the workload once with the metrics registry reset
// and reads the resulting instruments back — latency quantiles through
// the Session.Metrics snapshot API, per-link wire counters through the
// registry's own text exposition, exactly as a /metrics scrape would.
func metricsRow(name string, cfg nab.Config, window int, inputs [][]byte, walDir string) (MetricsRow, error) {
	metrics.Default().Reset()
	opts := []nab.SessionOption{nab.WithWindow(window)}
	if walDir != "" {
		opts = append(opts, nab.WithDurability(walDir))
	}
	ctx := context.Background()
	sess, err := nab.Open(ctx, cfg, opts...)
	if err != nil {
		return MetricsRow{}, err
	}
	defer sess.Close()
	go func() {
		for _, in := range inputs {
			if _, err := sess.Submit(ctx, in); err != nil {
				return
			}
		}
		sess.Drain(ctx)
	}()
	got := 0
	for range sess.Commits() {
		got++
	}
	if err := sess.Err(); err != nil {
		return MetricsRow{}, err
	}
	if got != len(inputs) {
		return MetricsRow{}, fmt.Errorf("streamed %d commits, want %d", got, len(inputs))
	}
	sm := sess.Metrics()
	row := MetricsRow{
		Topology:        name,
		CommitP50Ms:     millis(sm.CommitLatencyP50),
		CommitP99Ms:     millis(sm.CommitLatencyP99),
		SubmitWaitP99Ms: millis(sm.SubmitWaitP99),
		LinkBits:        scrapeLinkBits(),
	}
	if walDir != "" {
		row.FsyncP99Ms = millis(sm.WALFsyncP99)
		row.WALAppendBytes = sm.WALAppendBytes
	}
	return row, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scrapeLinkBits reads the per-link bit counters out of the registry's
// text exposition.
func scrapeLinkBits() map[string]int64 {
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `nab_transport_link_bits_total{link="`)
		if !ok {
			continue
		}
		link, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || f <= 0 {
			// Zero-valued children are links an earlier topology dialed;
			// Reset keeps them registered but this run never used them.
			continue
		}
		out[link] = int64(f)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// walRows measures the durability subsystem in-process: the
// zero-allocation commit-record append, the fsync path serial (one
// fsync per record) vs group-committed under 16 concurrent submitters
// (many records per fsync), and a full session recovery — WAL replay,
// dispute-state restore, re-delivery — per committed instance.
func walRows(lenBytes int) ([]KernelRow, error) {
	bench := func(name string, fn func(b *testing.B)) KernelRow {
		r := testing.Benchmark(fn)
		return KernelRow{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	ir := &nab.InstanceResult{
		K: 1, Gamma: 6, Rho: 3, SymBits: 16, Stripes: 2,
		Outputs: map[nab.NodeID][]byte{
			1: bytes.Repeat([]byte{0x17}, lenBytes),
			2: bytes.Repeat([]byte{0x2a}, lenBytes),
			4: bytes.Repeat([]byte{0x99}, lenBytes),
		},
		TotalBits: 4096,
	}
	payload := bytes.Repeat([]byte{0x42}, lenBytes)

	var rows []KernelRow
	appendRow := func(name string, opt wal.Options, fn func(l *wal.Log, b *testing.B)) error {
		dir, err := os.MkdirTemp("", "bench2json-walrow-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		l, err := wal.Open(dir, opt)
		if err != nil {
			return err
		}
		defer l.Close()
		rows = append(rows, bench(name, func(b *testing.B) { fn(l, b) }))
		return nil
	}
	if err := appendRow("wal.Append/commit-record", wal.Options{NoSync: true}, func(l *wal.Log, b *testing.B) {
		buf := make([]byte, 0, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wal.AppendCommit(buf[:0], ir)
			if _, err := l.Append(wal.TypeCommit, buf); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := appendRow("wal.AppendSync/serial-fsync", wal.Options{}, func(l *wal.Log, b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := l.AppendSync(wal.TypeSubmit, payload); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := appendRow("wal.AppendSync/group-commit-16", wal.Options{}, func(l *wal.Log, b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(16)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := l.AppendSync(wal.TypeSubmit, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}); err != nil {
		return nil, err
	}

	// Recovery: replay a durable lockstep session of recoverQ committed
	// instances — WAL scan, dispute-state restore, re-delivery of every
	// commit — and charge the wall time per recovered instance.
	const recoverQ = 64
	dir, err := os.MkdirTemp("", "bench2json-walrec-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 1), Source: 1, F: 1, LenBytes: lenBytes, Seed: 9}
	inputs := make([][]byte, recoverQ)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{byte(i + 1)}, lenBytes)
	}
	if _, err := sessionRun(cfg, inputs, nab.WithLockstep(), nab.WithDurability(dir)); err != nil {
		return nil, err
	}
	start := time.Now()
	const recoverRuns = 8
	for i := 0; i < recoverRuns; i++ {
		sess, err := nab.Open(context.Background(), cfg, nab.WithLockstep(), nab.Recover(dir))
		if err != nil {
			return nil, err
		}
		go sess.Drain(context.Background())
		n := 0
		for c := range sess.Commits() {
			if c.Replayed {
				n++
			}
		}
		sess.Close()
		if n != recoverQ {
			return nil, fmt.Errorf("recovery replayed %d commits, want %d", n, recoverQ)
		}
	}
	rows = append(rows, KernelRow{
		Name:    "session.Recover/replay-per-instance",
		NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(recoverRuns*recoverQ),
	})
	return rows, nil
}

// flightRows measures the flight recorder's hot path in-process: the
// record cost with a ring armed (pinned at 0 allocs/op by
// TestFlightRecordZeroAlloc), the disarmed cost every engine pays when
// tracing is off (one atomic load), and the latency of serializing a
// full 64k-event ring into a dump — the /debug/flight response time.
func flightRows() []KernelRow {
	bench := func(name string, fn func(b *testing.B)) KernelRow {
		r := testing.Benchmark(fn)
		return KernelRow{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	rec := flight.Default()
	rec.Enable(1 << 16)
	defer rec.Disable()
	ev := flight.Event{Type: flight.EvFrameSend, Node: 1, Peer: 2, Inst: 3, Step: 1, Arg: 4}
	rows := []KernelRow{
		bench("flight.Record/armed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				flight.Record(ev)
			}
		}),
	}
	// The record benchmark left the ring full, so the dump row measures
	// the worst case: every slot serialized.
	rows = append(rows, bench("flight.DumpBytes/full-64k-ring", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec.DumpBytes("manual", 1) == nil {
				b.Fatal("recorder disarmed mid-benchmark")
			}
		}
	}))
	rec.Disable()
	rows = append(rows, bench("flight.Record/disarmed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flight.Record(ev)
		}
	}))
	return rows
}

// snapshotRows measures join-time state reconstruction at growing
// watermarks: the blank joiner either folds the full commit history —
// uvarint-framed fold records, exactly as the control plane's WAL-tail
// fallback ships them — or decodes one snapshot and seeds the builder
// from it. The history is synthetic but dispute-bearing (every 97th
// instance runs dispute control), so the restored state is non-trivial.
func snapshotRows() ([]SnapshotRow, error) {
	g := nab.CompleteGraph(7, 2)
	pairs := [][2]graph.NodeID{{2, 3}, {4, 5}, {2, 6}, {3, 7}, {5, 6}}
	var rows []SnapshotRow
	for _, n := range []int{1_000, 10_000, 100_000} {
		b := core.NewSnapshotBuilder(g)
		var tail, frame []byte
		for k := 1; k <= n; k++ {
			ir := &nab.InstanceResult{K: k}
			if k%97 == 0 {
				ir.Phase3 = true
				ir.NewDisputes = [][2]graph.NodeID{pairs[(k/97)%len(pairs)]}
			}
			frame = wal.AppendCommitFold(frame[:0], ir)
			tail = binary.AppendUvarint(tail, uint64(len(frame)))
			tail = append(tail, frame...)
			if err := b.Fold(ir); err != nil {
				return nil, err
			}
		}
		state := b.State()
		snap := wal.Snapshot{K: state.K, Gen: state.Gen, Disputes: state.Disputes, Faulty: state.Faulty}
		snap.Digest = wal.SnapshotDigest(snap)
		snapBytes := wal.AppendSnapshot(nil, snap)

		// Full replay: decode and fold every record into a fresh builder.
		start := time.Now()
		rb := core.NewSnapshotBuilder(g)
		rest := tail
		for len(rest) > 0 {
			ln, sz := binary.Uvarint(rest)
			if sz <= 0 || uint64(len(rest)-sz) < ln {
				return nil, fmt.Errorf("snapshot bench: torn tail frame")
			}
			ir, err := wal.DecodeCommitFold(rest[sz : sz+int(ln)])
			if err != nil {
				return nil, err
			}
			if err := rb.Fold(ir); err != nil {
				return nil, err
			}
			rest = rest[sz+int(ln):]
		}
		replayMs := float64(time.Since(start).Nanoseconds()) / 1e6
		if rb.K() != state.K || rb.Gen() != state.Gen {
			return nil, fmt.Errorf("snapshot bench: replayed state diverged at n=%d", n)
		}

		// Snapshot restore: decode and seed — the joiner's fetch path.
		// Loop it; a single restore is microseconds.
		const restores = 200
		start = time.Now()
		for i := 0; i < restores; i++ {
			dec, err := wal.DecodeSnapshot(snapBytes)
			if err != nil {
				return nil, err
			}
			seed := core.SnapshotState{K: dec.K, Gen: dec.Gen, Disputes: dec.Disputes, Faulty: dec.Faulty}
			if _, err := core.NewSnapshotBuilder(g).Seed(seed); err != nil {
				return nil, err
			}
		}
		snapMs := float64(time.Since(start).Nanoseconds()) / 1e6 / restores
		rows = append(rows, SnapshotRow{
			Instances: n, ReplayMs: replayMs, ReplayBytes: len(tail),
			SnapshotMs: snapMs, SnapshotBytes: len(snapBytes),
			Speedup: replayMs / snapMs,
		})
	}
	return rows, nil
}

// buildNabnode compiles cmd/nabnode into a temp dir.
func buildNabnode() (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "bench2json-nabnode-*")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin = filepath.Join(dir, "nabnode")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nabnode")
	if outB, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("go build ./cmd/nabnode: %v\n%s", err, outB)
	}
	return bin, cleanup, nil
}

// clusterIPS runs the workload on a true multi-process cluster — one
// nabnode OS process per topology node — and derives instances/sec from
// the source process's reported wall time (boot and teardown excluded).
func clusterIPS(nabnode string, g *nab.Graph, f, lenBytes, q, window int, seed int64) (float64, error) {
	dir, err := os.MkdirTemp("", "bench2json-cluster-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	topoPath := filepath.Join(dir, "topo.txt")
	if err := os.WriteFile(topoPath, []byte(g.Marshal()), 0o644); err != nil {
		return 0, err
	}
	cmd := exec.Command(nabnode,
		"-spawn-local", "-file", topoPath, "-source", "1",
		"-f", fmt.Sprint(f), "-len", fmt.Sprint(lenBytes),
		"-q", fmt.Sprint(q), "-window", fmt.Sprint(window),
		"-seed", fmt.Sprint(seed), "-out", filepath.Join(dir, "cluster.json"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("nabnode -spawn-local: %v\n%s", err, stderr.String())
	}
	// The source node's summary line carries the run's wall seconds.
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, `"done":true`) {
			continue
		}
		var sum struct {
			Node      int     `json:"node"`
			Instances int     `json:"instances"`
			WallSecs  float64 `json:"wallSecs"`
		}
		if err := json.Unmarshal([]byte(line), &sum); err != nil {
			continue
		}
		if sum.Node == 1 && sum.WallSecs > 0 {
			return float64(sum.Instances) / sum.WallSecs, nil
		}
	}
	return 0, fmt.Errorf("no source summary line in nabnode output")
}
