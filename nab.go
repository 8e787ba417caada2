// Package nab is a Go implementation of NAB — the Network-Aware Byzantine
// Broadcast algorithm of Liang & Vaidya (PODC 2012, arXiv:1106.1845):
// throughput-optimal (within a constant factor of capacity) Byzantine
// broadcast for synchronous point-to-point networks with per-link
// capacities, at most f < n/3 Byzantine nodes and vertex connectivity at
// least 2f+1.
//
// The package is a facade over the substrates in internal/: capacitated
// graphs and flow algorithms, spanning-structure packing, GF(2^m) linear
// coding, a synchronous network simulator, classic Byzantine broadcast
// (EIG) over disjoint-path relays, and dispute control.
//
// # Streaming sessions
//
// Session is the one execution API: a streaming, context-aware facade
// over every engine. Clients submit payloads continuously and consume
// commits as they land; the default pipelined engine keeps W instances in
// flight underneath (Appendix D's pipelining), with backpressure from a
// slow consumer all the way to Submit:
//
//	g := nab.CompleteGraph(4, 1) // K4, unit capacities
//	sess, err := nab.Open(ctx, nab.Config{Graph: g, Source: 1, F: 1, LenBytes: 64},
//		nab.WithWindow(4))
//	if err != nil { ... }
//	defer sess.Close()
//	go func() {
//		for _, p := range payloads {
//			seq, err := sess.Submit(ctx, p) // blocks when saturated
//			...
//		}
//		sess.Drain(ctx)
//	}()
//	for c := range sess.Commits() {
//		// c.Result.Outputs, committed in c.Seq order
//	}
//	err = sess.Err()
//
// WithLockstep selects the synchronous reference simulator, WithTransport
// (e.g. NewTCPTransport) runs the pipelined engine's links over loopback
// TCP, and WithCluster joins a multi-process cluster (internal/cluster,
// cmd/nabnode) as the host of one node; identical payload sequences
// commit byte-identical outputs on every engine. WithDurability/Recover
// put a write-ahead log (internal/wal) under any engine: accepted
// submissions and commits are persisted, a killed process resumes where
// its log ends, and cluster processes rejoin a running mesh mid-stream.
//
// Runner, the lockstep driver one instance at a time, stays exported as
// the reproduction harness's oracle. Use AnalyzeCapacity to compute the
// paper's gamma*, rho*, the Theorem 2 capacity upper bound and the
// Theorem 3 throughput guarantee for a topology.
package nab

import (
	"math/rand"

	"nab/internal/adversary"
	"nab/internal/capacity"
	"nab/internal/cluster"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/runtime"
	"nab/internal/topo"
	"nab/internal/transport"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Graph is a simple directed graph with positive integer link
	// capacities — the paper's network model.
	Graph = graph.Directed
	// NodeID identifies a vertex.
	NodeID = graph.NodeID
	// Edge is a directed capacitated link.
	Edge = graph.Edge
	// Config parameterizes a NAB run (topology, source, fault bound f,
	// input size, adversaries, ablation overrides).
	Config = core.Config
	// Runner drives repeated NAB instances, carrying dispute state.
	Runner = core.Runner
	// InstanceResult reports one instance: outputs, per-phase times,
	// dispute-control findings.
	InstanceResult = core.InstanceResult
	// RunResult aggregates instances and computes throughput.
	RunResult = core.RunResult
	// Adversary customizes a faulty node's behaviour.
	Adversary = core.Adversary
	// HonestBehaviour is the no-op Adversary (embed it to override
	// selected hooks).
	HonestBehaviour = core.Honest
	// CapacityReport carries gamma*, rho*, the capacity upper bound and
	// throughput guarantee of a topology.
	CapacityReport = capacity.Report
)

// NewGraph returns an empty capacitated directed graph.
func NewGraph() *Graph { return graph.NewDirected() }

// ParseGraph reads the "from to capacity" text format (one edge per line,
// '#' comments, "node v" for isolated vertices).
func ParseGraph(text string) (*Graph, error) { return graph.ParseDirected(text) }

// Re-exported pipelined-runtime types. See internal/runtime and
// internal/transport for full documentation.
type (
	// PipelineResult extends RunResult with wall-clock, replay and
	// per-link accounting: a Session's Result. It carries the aggregates
	// alone — Committed(), TotalTime(), DisputePhases() — and Instances
	// stays nil; the per-instance reports went out on Commits.
	PipelineResult = runtime.Result
	// PipelineReport is the aggregate throughput accounting, comparable
	// against CapacityReport's Theorem 2/3 bounds.
	PipelineReport = runtime.Report
	// Transport is a pluggable point-to-point substrate (per-link
	// Dial/Send/Recv with capacity accounting).
	Transport = transport.Transport
	// TransportOptions tunes the in-process bus (token-bucket pacing,
	// optional chaos physics).
	TransportOptions = transport.ChanOptions
	// ChaosConfig scripts seeded hostile network physics — per-link
	// latency/jitter, reorder windows, asymmetric partitions with
	// scheduled heal times, slow-link throttles — for any transport:
	// set TransportOptions.Chaos (in-process bus), pass it to
	// NewTCPTransportOpts, or put it in ClusterConfig.Chaos so every
	// process of a cluster injects the same physics.
	ChaosConfig = transport.ChaosConfig
	// ChaosLink is one directed link's chaos physics profile.
	ChaosLink = transport.LinkChaos
	// ChaosLinkRule scopes a ChaosLink profile to matching links.
	ChaosLinkRule = transport.LinkRule
	// ChaosPartition schedules one asymmetric partition with a heal time.
	ChaosPartition = transport.Partition
	// ChaosDuration is a time.Duration that marshals as "50ms" in JSON.
	ChaosDuration = transport.Duration
	// TCPTransportOptions tunes NewTCPTransportOpts.
	TCPTransportOptions = transport.TCPOptions
)

// NewRunner validates cfg and prepares a NAB execution.
func NewRunner(cfg Config) (*Runner, error) { return core.NewRunner(cfg) }

// NewPipelineReport derives the aggregate throughput accounting for a
// finished run over topology g — use it on a Session's Result to set the
// measured rates next to the paper's Theorem 2/3 bounds (capRep may be
// nil).
func NewPipelineReport(g *Graph, res *PipelineResult, capRep *CapacityReport) *PipelineReport {
	return runtime.NewReport(g, res, capRep)
}

// NewTCPTransport builds a loopback-TCP substrate over g (one listener
// per node, one connection per directed link, encoding/binary framing)
// for WithTransport.
func NewTCPTransport(g *Graph) (Transport, error) { return transport.NewTCP(g) }

// NewTCPTransportOpts is NewTCPTransport with options (chaos physics).
func NewTCPTransportOpts(g *Graph, opt TCPTransportOptions) (Transport, error) {
	return transport.NewTCPOpts(g, opt)
}

// Re-exported multi-process cluster types. See internal/cluster for full
// documentation.
type (
	// ClusterConfig is the shared description of a multi-process
	// deployment: node placements, topology, workload and control plane.
	ClusterConfig = cluster.Config
	// ClusterNodeSpec places one node (id, hosting address, optional
	// scripted adversary).
	ClusterNodeSpec = cluster.NodeSpec
	// ClusterNode is one process's membership in a cluster (see
	// Session.Cluster).
	ClusterNode = cluster.Node
	// ClusterOptions tunes a process's endpoints (wire pacing, boot
	// timeout).
	ClusterOptions = cluster.Options
)

// ClusterReservation holds bound listeners for cluster endpoints until
// the node bootstrap takes them over (see ReserveClusterAddrs).
type ClusterReservation = cluster.Reservation

// ReserveClusterAddrs binds n loopback listeners on ephemeral ports and
// keeps them held for building local cluster configs: hand the
// reservation to WithCluster via ClusterOptions.Reservation so the ports
// cannot be lost to another process between reservation and boot.
func ReserveClusterAddrs(n int) (*ClusterReservation, error) { return cluster.ReserveAddrs(n) }

// AnalyzeCapacity computes the paper's throughput quantities for source in
// g with fault bound f. With exact=true the reachable-instance-graph family
// is enumerated exactly (small networks); otherwise the node-deletion
// family is used.
func AnalyzeCapacity(g *Graph, source NodeID, f int, exact bool) (*CapacityReport, error) {
	return capacity.Analyze(g, source, f, exact)
}

// --- topologies -------------------------------------------------------------

// CompleteGraph returns the complete bidirectional graph on n nodes (ids
// 1..n) with uniform capacity c.
func CompleteGraph(n int, c int64) *Graph { return topo.CompleteBi(n, c) }

// CirculantGraph returns the bidirectional circulant C_n(offsets...) with
// uniform capacity c — the multi-hop family used in pipelining experiments.
func CirculantGraph(n int, c int64, offsets ...int) (*Graph, error) {
	return topo.Circulant(n, c, offsets...)
}

// RandomGraph returns a random bidirectional network with vertex
// connectivity at least minConn and capacities in [1, maxCap].
func RandomGraph(rng *rand.Rand, n, minConn int, maxCap int64) (*Graph, error) {
	return topo.RandomConnected(rng, n, minConn, maxCap)
}

// HeterogeneousGraph returns a clique whose core links are fat and whose
// remaining links are thin — the network-awareness showcase.
func HeterogeneousGraph(n, fatNodes int, fatCap, thinCap int64) (*Graph, error) {
	return topo.Heterogeneous(n, fatNodes, fatCap, thinCap)
}

// OneThinLinkGraph returns a fat clique with a single thin link — the
// topology where capacity-oblivious broadcast is arbitrarily slower than
// NAB.
func OneThinLinkGraph(n int, thinA, thinB NodeID, fatCap, thinCap int64) (*Graph, error) {
	return topo.OneThinLink(n, thinA, thinB, fatCap, thinCap)
}

// PaperFig1Graph returns the worked-example graph of the paper's Figure
// 1(a), reconstructed from the numbers stated in the text.
func PaperFig1Graph() *Graph { return topo.Fig1a() }

// --- adversaries ------------------------------------------------------------

// CrashAdversary returns a fail-stop node (silent in every phase).
func CrashAdversary() Adversary { return adversary.Crash{} }

// BlockFlipperAdversary corrupts Phase-1 blocks sent to the given victims
// (all children when none are named); on the source it equivocates.
func BlockFlipperAdversary(victims ...NodeID) Adversary {
	if len(victims) == 0 {
		return &adversary.BlockFlipper{}
	}
	m := make(map[NodeID]bool, len(victims))
	for _, v := range victims {
		m[v] = true
	}
	return &adversary.BlockFlipper{Victims: m}
}

// CodedCorruptorAdversary corrupts equality-check symbols.
func CodedCorruptorAdversary() Adversary { return &adversary.CodedCorruptor{} }

// FalseAlarmAdversary always announces MISMATCH, forcing dispute control.
func FalseAlarmAdversary() Adversary { return adversary.FalseAlarm{} }

// SeededRandomAdversary is the instance-scoped coin flipper: every
// instance draws from a fresh stream derived from (seed, instance), so
// runs are reproducible under any pipeline window, across barrier
// replays, and across cluster processes.
func SeededRandomAdversary(seed int64) Adversary {
	return &adversary.Random{Seed: seed}
}
