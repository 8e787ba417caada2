package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"nab/internal/bb"
	"nab/internal/capacity"
	"nab/internal/coding"
	"nab/internal/core"
	"nab/internal/dispute"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/relay"
	"nab/internal/sim"
	"nab/internal/spantree"
	"nab/internal/transport"
	"nab/internal/wal"
)

// Kernel spans ("K" in spec.go): each layer's public entry points, timed
// from outside at the shape the workload gives them — the field degree,
// rho, gamma, stripe count and block size of its instance-1 plan, read off
// a lockstep instance. They run after the traced window, alone on the
// machine, and hang under one `kernels` root span in the trace file.

type kernelRun struct {
	metrics map[string]float64
	// spans[0] is the `kernels` root.
	spans []span
	// lockstep is the instance report the shapes were read from.
	lockstep *core.InstanceResult
	// budget bounds the repetitions of one kernel.
	budget time.Duration
	// err is the first kernel failure; later kernels are skipped.
	err error
}

// timed runs fn up to maxReps times (stopping once the budget is spent, but
// never before the second repetition when there is a budget at all),
// records one span covering all repetitions and returns the median duration
// of one in ns. After a failure it does nothing.
func (k *kernelRun) timed(name string, maxReps int, fn func() error) float64 {
	if k.err != nil {
		return 0
	}
	start := time.Now()
	var samples []float64
	for i := 0; i < maxReps && (i == 0 || (i < 2 && k.budget > 0) || time.Since(start) < k.budget); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			k.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	k.spans = append(k.spans, span{Name: name, Start: start.UnixNano(), End: time.Now().UnixNano(), Parent: 0})
	return median(samples)
}

func measureKernels(w *workload, env *runEnv, budget time.Duration) (*kernelRun, error) {
	k := &kernelRun{metrics: map[string]float64{}, budget: budget}
	k.spans = append(k.spans, span{Name: "kernels", Start: time.Now().UnixNano(), Parent: -1})
	defer func() { k.spans[0].End = time.Now().UnixNano() }()

	cfg, err := w.config(env)
	if err != nil {
		return nil, err
	}
	g, n, f := cfg.Graph, cfg.Graph.NumNodes(), cfg.F
	src := cfg.Source
	rng := rand.New(rand.NewSource(env.seed))
	payload := make([]byte, w.Len)
	rng.Read(payload)

	// core: the single-thread baseline, which also yields the plan's shape.
	runner, err := core.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	k.metrics["core.lockstep_instance_ms"] = k.timed("core.lockstep_instance", 5, func() error {
		ir, err := runner.RunInstance(payload)
		k.lockstep = ir
		return err
	}) / 1e6
	if k.err != nil {
		return nil, k.err
	}
	ir := k.lockstep
	k.metrics["gf.symbol_bits"] = float64(ir.SymBits)

	proto, err := core.NewProtocol(cfg)
	if err != nil {
		return nil, err
	}
	k.metrics["core.plan_instance_ms"] = k.timed("core.plan_instance", 5, func() error {
		_, err := proto.PlanInstance(core.NewDisputeState(g), 1, rand.New(rand.NewSource(env.seed)))
		return err
	}) / 1e6

	// The pieces of a plan, one by one.
	var tab *relay.Table
	k.metrics["relay.table_build_ms"] = k.timed("relay.table_build", 5, func() error {
		tab, err = relay.NewTable(g, 2*f+1)
		return err
	}) / 1e6

	k.metrics["capacity.analyze_ms"] = k.timed("capacity.analyze", 5, func() error {
		_, err := capacity.Analyze(g, src, f, false)
		return err
	}) / 1e6

	field, err := gf.New(ir.SymBits)
	if err != nil {
		return nil, err
	}
	omega := dispute.Omega(g, dispute.NewSet(), n-f)
	var scheme *coding.Scheme
	var tries int
	k.metrics["coding.scheme_generate_ms"] = k.timed("coding.scheme_generate", 5, func() error {
		scheme, tries, err = coding.GenerateVerified(g, ir.Rho, field, omega, rand.New(rand.NewSource(env.seed)), 64)
		return err
	}) / 1e6
	k.metrics["coding.scheme_tries"] = float64(tries)

	k.metrics["spantree.pack_ms"] = k.timed("spantree.pack", 5, func() error {
		_, err := spantree.PackArborescences(g, src, int(ir.Gamma))
		return err
	}) / 1e6

	if k.err != nil {
		return nil, k.err // the kernels below need the table and the scheme
	}

	// gf: the two bulk row kernels at the plan's degree.
	const row, batch = 1024, 64
	a := field.Rand(rng) | 1
	rowSrc, rowDst := randElems(field, rng, row), make([]gf.Elem, row)
	k.metrics["gf.axpy_ns_per_elem"] = k.timed("gf.axpy", 9, func() error {
		for i := 0; i < batch; i++ {
			field.AXPY(a, rowDst, rowSrc)
		}
		return nil
	}) / (row * batch)
	k.metrics["gf.mulslice_ns_per_elem"] = k.timed("gf.mulslice", 9, func() error {
		for i := 0; i < batch; i++ {
			field.MulSlice(a, rowDst, rowSrc)
		}
		return nil
	}) / (row * batch)

	// linalg: one coded-symbol vector product on the source's first edge.
	outEdges, inEdges := g.OutEdges(src), g.InEdges(src)
	if len(outEdges) == 0 || len(inEdges) == 0 {
		return nil, fmt.Errorf("source %d has no links", src)
	}
	mat := scheme.EdgeMatrix(src, outEdges[0].To)
	vec, vecDst := randElems(field, rng, mat.Rows()), make([]gf.Elem, mat.Cols())
	const vecBatch = 256
	k.metrics["linalg.mulvecinto_ns"] = k.timed("linalg.mulvecinto", 9, func() error {
		for i := 0; i < vecBatch; i++ {
			if err := mat.MulVecInto(vec, vecDst); err != nil {
				return err
			}
		}
		return nil
	}) / vecBatch

	// coding: what one node does for the equality check — view its value
	// as stripes of rho symbols, encode every stripe onto every out-edge,
	// check every stripe of every in-edge.
	x := make([][]gf.Elem, ir.Stripes)
	stripeBytes := (ir.Rho*int(ir.SymBits) + 7) / 8
	k.metrics["coding.pack_ns_per_payload_byte"] = k.timed("coding.pack", 5, func() error {
		for s := range x {
			lo := min(s*stripeBytes, len(payload))
			hi := min(lo+stripeBytes, len(payload))
			if x[s], err = coding.PackValue(payload[lo:hi], ir.Rho, ir.SymBits); err != nil {
				return err
			}
		}
		return nil
	}) / float64(w.Len)
	enc := make([]gf.Elem, scheme.MaxCap())
	k.metrics["coding.encode_ns_per_payload_byte"] = k.timed("coding.encode", 5, func() error {
		for _, e := range outEdges {
			for _, stripe := range x {
				if err := scheme.EncodeInto(src, e.To, stripe, enc[:e.Cap]); err != nil {
					return err
				}
			}
		}
		return nil
	}) / float64(w.Len)
	// What every in-neighbour would send had it the same value: its edge
	// matrix applied to x.
	recv := make([][][]gf.Elem, len(inEdges))
	for i, e := range inEdges {
		recv[i] = make([][]gf.Elem, len(x))
		for s, stripe := range x {
			if recv[i][s], err = scheme.Encode(e.From, src, stripe); err != nil {
				return nil, err
			}
		}
	}
	scratch := make([]gf.Elem, scheme.MaxCap())
	k.metrics["coding.check_ns_per_payload_byte"] = k.timed("coding.check", 5, func() error {
		for i, e := range inEdges {
			for s, stripe := range x {
				mismatch, err := scheme.CheckInto(e.From, src, stripe, recv[i][s], scratch)
				if err != nil {
					return err
				}
				if mismatch {
					return fmt.Errorf("equal values failed the equality check on edge (%d,%d)", e.From, src)
				}
			}
		}
		return nil
	}) / float64(w.Len)

	// bb: one step-2.2 flag agreement among all n nodes at tolerance f,
	// every node's work on one goroutine.
	participants := g.Nodes()
	rounds := (f+1)*tab.Rounds() + 1
	var allocs float64
	k.metrics["bb.broadcast_ms"] = k.timed("bb.broadcast", 5, func() error {
		before := readProc().allocs
		engine := sim.New(g)
		engine.SetRecording(false)
		nodes := make([]*bb.Node, 0, n)
		for _, v := range participants {
			nd, err := bb.NewNode(v, participants, f, relay.NewRouter(v, tab), []byte{0})
			if err != nil {
				return err
			}
			if err := engine.SetProcess(v, nd); err != nil {
				return err
			}
			nodes = append(nodes, nd)
		}
		if _, err := engine.RunPhase("flags", rounds); err != nil {
			return err
		}
		for _, nd := range nodes {
			nd.Finish()
			for _, q := range participants {
				if dec := nd.Decide(q); len(dec) != 1 || dec[0] != 0 {
					return fmt.Errorf("general %d's flag decoded as %v", q, dec)
				}
			}
		}
		allocs = readProc().allocs - before
		return nil
	}) / 1e6
	k.metrics["bb.allocs_per_broadcast"] = allocs

	// transport: the codec on a Phase 1 block of this workload's size,
	// and one hop on each substrate.
	blockBits := 8 * w.Len / int(ir.Gamma)
	msg := &transport.Message{
		Instance: 1, Step: 1, From: 1, To: 2, Bits: int64(blockBits),
		Body: core.Phase1Msg{Block: core.BitChunk{Bytes: payload[:(blockBits+7)/8], BitLen: blockBits}},
	}
	const frames = 512
	var frame []byte
	k.metrics["transport.encode_ns_per_frame"] = k.timed("transport.encode", 9, func() error {
		for i := 0; i < frames; i++ {
			if frame, err = transport.AppendFrame(frame[:0], msg); err != nil {
				return err
			}
		}
		return nil
	}) / frames
	k.metrics["transport.decode_ns_per_frame"] = k.timed("transport.decode", 9, func() error {
		for i := 0; i < frames; i++ {
			if _, err := transport.Decode(frame[4:]); err != nil {
				return err
			}
		}
		return nil
	}) / frames

	pair := graph.NewDirected()
	if err := pair.AddBiEdge(1, 2, 1); err != nil {
		return nil, err
	}
	tcp, err := transport.NewTCP(pair)
	if err != nil {
		return nil, err
	}
	for _, sub := range []struct {
		name string
		tr   transport.Transport
	}{
		{"transport.chan_hop", transport.NewChan(pair, transport.ChanOptions{})},
		{"transport.tcp_hop", tcp},
	} {
		k.metrics[sub.name+"_us"] = k.hop(sub.name, sub.tr, msg) / 1e3
		sub.tr.Close()
	}

	// wal: one commit record framed into the log buffer, no fsync.
	dir, err := os.MkdirTemp(env.scratch, "walk-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	rec := wal.AppendCommit(nil, ir)
	// About 1 MiB of records per repetition: a 64 KiB payload makes a
	// 450 KB commit record.
	appends := min(512, max(2, (1<<20)/len(rec)))
	k.metrics["wal.append_ns"] = k.timed("wal.append", 9, func() error {
		for i := 0; i < appends; i++ {
			if _, err := log.Append(wal.TypeCommit, rec); err != nil {
				return err
			}
		}
		return nil
	}) / float64(appends)
	return k, k.err
}

// hop times one frame Send -> Recv over link (1,2) of tr, one at a time,
// in ns.
func (k *kernelRun) hop(name string, tr transport.Transport, msg *transport.Message) float64 {
	const hops = 200
	var link transport.Link
	return k.timed(name, 9, func() (err error) {
		if link == nil {
			if link, err = tr.Dial(1, 2); err != nil {
				return err
			}
		}
		for i := 0; i < hops; i++ {
			if err := link.Send(msg); err != nil {
				return err
			}
			if _, err := tr.Recv(2); err != nil {
				return err
			}
		}
		return nil
	}) / hops
}

func randElems(f *gf.Field, rng *rand.Rand, n int) []gf.Elem {
	out := make([]gf.Elem, n)
	for i := range out {
		out[i] = f.Rand(rng)
	}
	return out
}
