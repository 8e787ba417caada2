package transport

import (
	"strconv"

	"nab/internal/graph"
	"nab/internal/metrics"
	"nab/internal/obs"
)

// reconnLog narrates mesh-link healing (down, redialed, reestablished).
var reconnLog = obs.New("transport")

// Wire-layer instruments. Per-link counters are resolved once at Dial
// time (linkMetricsFor) and cached inside the link, so Send performs only
// atomic increments.
var (
	mFramesSent = metrics.NewCounterVec("nab_transport_frames_sent_total",
		"Frames sent per directed link.", "link")
	mLinkBits = metrics.NewCounterVec("nab_transport_link_bits_total",
		"Capacity-charged bits sent per directed link.", "link")
	mFlushes = metrics.NewCounter("nab_transport_flushes_total",
		"Socket flushes by link queues, one whenever no frame is due (one syscall per burst).")
	mWriterFrames = metrics.NewCounter("nab_transport_writer_frames_total",
		"Frames link queues wrote to sockets.")
	mDials = metrics.NewCounter("nab_transport_dials_total",
		"Outbound link connections established, including reconnects.")
	mRedials = metrics.NewCounter("nab_transport_redials_total",
		"Mesh link redials: background reconnects plus forced reestablishments.")
	mDropped = metrics.NewCounter("nab_transport_frames_dropped_total",
		"Inbound frames dropped for violating link pinning or physics.")
	mSendsLost = metrics.NewCounter("nab_transport_sends_lost_total",
		"Outbound frames dropped on down links while reconnect healed them.")
	mPacerStall = metrics.NewHistogram("nab_transport_pacer_stall_seconds",
		"Time frames waited in link token buckets after release (senders never wait).", metrics.LatencyBuckets)
)

// linkMetrics is one link's pair of hot-path counters.
type linkMetrics struct {
	frames *metrics.Counter
	bits   *metrics.Counter
}

// linkString renders a directed link as its metric/log label, "1->2".
func linkString(key [2]graph.NodeID) string {
	return strconv.Itoa(int(key[0])) + "->" + strconv.Itoa(int(key[1]))
}

// linkMetricsFor resolves (allocating if first use) the counters of the
// directed link from->to.
func linkMetricsFor(from, to graph.NodeID) linkMetrics {
	label := linkString([2]graph.NodeID{from, to})
	return linkMetrics{frames: mFramesSent.With(label), bits: mLinkBits.With(label)}
}

// count records one accepted frame.
func (lm linkMetrics) count(m *Message) {
	lm.frames.Inc()
	if m.Bits > 0 {
		lm.bits.Add(m.Bits)
	}
}
