// Package cluster bootstraps a multi-process NAB deployment: every node
// of the topology runs in an OS process of its own (or a few nodes share
// one), full-mesh TCP links carry the protocol frames between processes,
// and a light control plane distributes the few schedule decisions a
// process cannot decode locally. The runtime engine (internal/runtime)
// plugs in unchanged — markers, dispute barriers and pipelined windows
// all flow over real sockets — and the committed outputs are
// byte-identical to the single-process lockstep core.Runner.
//
// A cluster is described by one shared Config (typically a cluster.json
// file): node IDs with their hosting addresses, the capacitated topology,
// the broadcast source, the fault bound, and the deterministic workload.
// Every process loads the same config and drives the same scheduler, so
// launch numbering — and therefore frame routing — stays aligned across
// processes with no coordination traffic.
package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/transport"
)

// NodeSpec places one node of the topology.
type NodeSpec struct {
	ID graph.NodeID `json:"id"`
	// Addr is the TCP address the node's hosting process listens on for
	// inbound links. Nodes sharing an Addr are hosted by one process.
	Addr string `json:"addr"`
	// Adversary optionally scripts the node's Byzantine strategy:
	// "crash", "flip", "coded", "alarm", "suppress", or "random:<seed>".
	// Empty means fault-free. Scripted adversaries live in the cluster
	// config so every process agrees on who is faulty — the harness's
	// omniscient view, exactly like core.Config.Adversaries.
	Adversary string `json:"adversary,omitempty"`
}

// Config is the shared description of one cluster. All processes must
// load an identical Config.
type Config struct {
	// Topology is the capacitated edge list in graph.ParseDirected format
	// ("from to capacity" per line).
	Topology string       `json:"topology"`
	Nodes    []NodeSpec   `json:"nodes"`
	Source   graph.NodeID `json:"source"`
	F        int          `json:"f"`
	LenBytes int          `json:"lenBytes"`
	// Seed drives coding-matrix draws and the deterministic workload.
	Seed int64 `json:"seed"`
	// Window is the pipeline depth (instances in flight per process).
	Window int `json:"window"`
	// Instances is the workload size: every process generates the same
	// Instances inputs from Seed and runs them through its scheduler.
	Instances int `json:"instances"`
	// CtrlAddr is the control-plane address of the coordinator (the
	// process hosting Source): followers whose local nodes fall out of
	// the instance graph fetch the agreed mismatch/audit decisions there.
	CtrlAddr string `json:"ctrlAddr"`
	// SnapshotInterval is the snapshot boundary granularity for join
	// rounds: a blank process fetches the newest snapshot at a multiple
	// of the interval at or below the rewind watermark. Shared config
	// because the boundary must be the same in every process for the
	// snapshot copies to match. 0 means DefaultSnapshotInterval.
	SnapshotInterval int `json:"snapshotInterval,omitempty"`
	// Chaos optionally scripts hostile network physics for the scenario:
	// seeded per-link latency/jitter, reorder windows, asymmetric
	// partitions with scheduled heal times, slow-link throttles. Living
	// in the shared config means every process injects the same physics
	// — chaos is part of the scenario, like the adversaries. Nil means a
	// polite network.
	Chaos *transport.ChaosConfig `json:"chaos,omitempty"`
}

// Load reads and validates a cluster.json.
func Load(path string) (*Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read config: %w", err)
	}
	cfg := &Config{}
	if err := json.Unmarshal(raw, cfg); err != nil {
		return nil, fmt.Errorf("cluster: parse config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Save writes the config as indented JSON.
func (c *Config) Save(path string) error {
	raw, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Graph parses the topology.
func (c *Config) Graph() (*graph.Directed, error) {
	return graph.ParseDirected(c.Topology)
}

// Validate checks the config's internal consistency (protocol
// preconditions are checked again by core.NewProtocol).
func (c *Config) Validate() error {
	g, err := c.Graph()
	if err != nil {
		return fmt.Errorf("cluster: topology: %w", err)
	}
	if len(c.Nodes) != g.NumNodes() {
		return fmt.Errorf("cluster: %d node specs for %d topology nodes", len(c.Nodes), g.NumNodes())
	}
	seen := map[graph.NodeID]bool{}
	bad := 0
	for _, ns := range c.Nodes {
		if !g.HasNode(ns.ID) {
			return fmt.Errorf("cluster: node %d not in topology", ns.ID)
		}
		if seen[ns.ID] {
			return fmt.Errorf("cluster: duplicate node spec %d", ns.ID)
		}
		seen[ns.ID] = true
		if ns.Addr == "" {
			return fmt.Errorf("cluster: node %d has no address", ns.ID)
		}
		if ns.Adversary != "" {
			if _, err := ParseAdversary(ns.Adversary); err != nil {
				return fmt.Errorf("cluster: node %d: %w", ns.ID, err)
			}
			bad++
		}
	}
	if !seen[c.Source] {
		return fmt.Errorf("cluster: source %d has no node spec", c.Source)
	}
	if bad > c.F {
		return fmt.Errorf("cluster: %d scripted adversaries exceed fault bound f = %d", bad, c.F)
	}
	if c.LenBytes <= 0 {
		return fmt.Errorf("cluster: lenBytes = %d must be positive", c.LenBytes)
	}
	if c.Instances < 0 {
		return fmt.Errorf("cluster: instances = %d must be non-negative", c.Instances)
	}
	if c.CtrlAddr == "" {
		return fmt.Errorf("cluster: no control-plane address")
	}
	if c.SnapshotInterval < 0 {
		return fmt.Errorf("cluster: snapshotInterval = %d must be non-negative", c.SnapshotInterval)
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if c.Chaos != nil {
		for i, pt := range c.Chaos.Partitions {
			for _, v := range append(append([]graph.NodeID{}, pt.From...), pt.To...) {
				if !g.HasNode(v) {
					return fmt.Errorf("cluster: chaos partitions[%d]: node %d not in topology", i, v)
				}
			}
		}
		for i, r := range c.Chaos.Links {
			if r.From != 0 && !g.HasNode(r.From) {
				return fmt.Errorf("cluster: chaos links[%d]: node %d not in topology", i, r.From)
			}
			if r.To != 0 && !g.HasNode(r.To) {
				return fmt.Errorf("cluster: chaos links[%d]: node %d not in topology", i, r.To)
			}
		}
	}
	return nil
}

// Spec returns the node spec for id.
func (c *Config) Spec(id graph.NodeID) (NodeSpec, bool) {
	for _, ns := range c.Nodes {
		if ns.ID == id {
			return ns, true
		}
	}
	return NodeSpec{}, false
}

// Addrs maps every node to its hosting address.
func (c *Config) Addrs() map[graph.NodeID]string {
	out := make(map[graph.NodeID]string, len(c.Nodes))
	for _, ns := range c.Nodes {
		out[ns.ID] = ns.Addr
	}
	return out
}

// Colocated lists the nodes hosted at the same address as id — the local
// set a process started for node id must drive.
func (c *Config) Colocated(id graph.NodeID) []graph.NodeID {
	spec, ok := c.Spec(id)
	if !ok {
		return nil
	}
	var out []graph.NodeID
	for _, ns := range c.Nodes {
		if ns.Addr == spec.Addr {
			out = append(out, ns.ID)
		}
	}
	return out
}

// DefaultSnapshotInterval is the join-round snapshot boundary used when
// the config leaves SnapshotInterval zero.
const DefaultSnapshotInterval = 64

// Lead returns the smallest node id hosted at addr — the stable process
// identity a join server votes under (order-independent, so every process
// derives the same lead for every peer).
func (c *Config) Lead(addr string) graph.NodeID {
	lead, found := graph.NodeID(0), false
	for _, ns := range c.Nodes {
		if ns.Addr == addr && (!found || ns.ID < lead) {
			lead, found = ns.ID, true
		}
	}
	return lead
}

// Adversaries builds the full scripted-adversary map.
func (c *Config) Adversaries() (map[graph.NodeID]core.Adversary, error) {
	specs := AdversarySpecs{}
	for _, ns := range c.Nodes {
		if ns.Adversary != "" {
			specs[ns.ID] = ns.Adversary
		}
	}
	out, err := specs.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return out, nil
}

// Inputs derives the cluster's agreed workload: Instances deterministic
// inputs of LenBytes each, seeded by Seed, identical in every process.
func (c *Config) Inputs() [][]byte {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x1abe11ed))
	out := make([][]byte, c.Instances)
	for i := range out {
		out[i] = make([]byte, c.LenBytes)
		rng.Read(out[i])
	}
	return out
}

// CoreConfig assembles the core configuration every process validates.
func (c *Config) CoreConfig() (core.Config, error) {
	g, err := c.Graph()
	if err != nil {
		return core.Config{}, err
	}
	advs, err := c.Adversaries()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Graph: g, Source: c.Source, F: c.F,
		LenBytes: c.LenBytes, Seed: c.Seed, Adversaries: advs,
	}, nil
}

// ParseAdversary resolves a strategy spec (NodeSpec.Adversary syntax):
// crash, flip, coded, alarm, suppress, or random[:<seed>], where a bare
// random means random:0.
func ParseAdversary(spec string) (core.Adversary, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "crash":
		return adversary.Crash{}, nil
	case "flip":
		return &adversary.BlockFlipper{}, nil
	case "coded":
		return &adversary.CodedCorruptor{}, nil
	case "alarm":
		return adversary.FalseAlarm{}, nil
	case "suppress":
		return adversary.Suppressor{}, nil
	case "random":
		seed := int64(0)
		if hasArg {
			s, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad random seed %q: %w", arg, err)
			}
			seed = s
		}
		// Seeded instance-scoped form: reproducible at any window and
		// across processes.
		return &adversary.Random{Seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown adversary strategy %q", spec)
}

// AdversarySpecs maps nodes to ParseAdversary strategy specs. As a
// flag.Value it is the repeatable -adversary node=strategy flag every
// command takes; Set rejects a spec ParseAdversary does not know.
type AdversarySpecs map[graph.NodeID]string

func (as AdversarySpecs) String() string { return fmt.Sprint(map[graph.NodeID]string(as)) }

func (as AdversarySpecs) Set(s string) error {
	idStr, spec, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want node=strategy, got %q", s)
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return fmt.Errorf("bad node id %q: %w", idStr, err)
	}
	if _, err := ParseAdversary(spec); err != nil {
		return err
	}
	as[graph.NodeID(id)] = spec
	return nil
}

// Build resolves every spec into the core.Config adversary map (nil when
// there are none).
func (as AdversarySpecs) Build() (map[graph.NodeID]core.Adversary, error) {
	if len(as) == 0 {
		return nil, nil
	}
	out := make(map[graph.NodeID]core.Adversary, len(as))
	for v, spec := range as {
		a, err := ParseAdversary(spec)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", v, err)
		}
		out[v] = a
	}
	return out, nil
}
