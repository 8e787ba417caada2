package transport

import (
	"time"

	"nab/internal/graph"
)

// ChanOptions tunes the in-process bus.
type ChanOptions struct {
	// TimeUnit is the real-time duration of one model time unit. When
	// positive, every link paces its frames with a token bucket of rate
	// z_e bits per TimeUnit and depth z_e bits, so a b-bit frame occupies
	// the link for b/z_e time units — the paper's capacity charge made
	// physical. Zero disables pacing (accounting only), the right setting
	// for throughput benchmarks.
	TimeUnit time.Duration
	// Chaos interposes seeded hostile network physics (latency, jitter,
	// reorder windows, scheduled partitions, slow links) on every link.
	// Nil means a polite network. See ChaosConfig.
	Chaos *ChaosConfig
}

// Chan is the in-process Transport: the mesh core hosting every node, so
// each directed link feeds its receiver's delivery point.
type Chan struct{ *mesh }

// NewChan builds the bus over topology g. Nodes and links are fixed at
// construction; dialing outside the topology fails.
func NewChan(g *graph.Directed, opt ChanOptions) *Chan {
	return &Chan{newMesh(g, g.Nodes(), opt.TimeUnit, opt.Chaos)}
}

// Dial implements Transport.
func (t *Chan) Dial(from, to graph.NodeID) (Link, error) { return t.dial(from, to, nil) }

// Close implements Transport: the Serve handler is not called again, and
// every Send from then on returns ErrClosed. Without a handler, every
// link's queue is flushed to its receiver's inbox without waiting for
// release times, best effort within one second (a frame meeting a full
// inbox is discarded), and Recv still returns what was delivered.
func (t *Chan) Close() error {
	t.close()
	return nil
}
