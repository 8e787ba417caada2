package transport

import "time"

// pacer is one directed link's token bucket: charging b bits on a link of
// capacity capBits bits per TimeUnit occupies it for b/capBits time units
// — the paper's capacity charge made physical. The bucket holds at most
// z_e bits (one TimeUnit's worth). A zero TimeUnit disables timing.
//
// Only the link's goroutine touches a pacer, so it needs no lock, and a
// frame waiting out its deficit holds up only the frames queued behind it
// on the same link, never its sender or another link.
type pacer struct {
	capBits int64
	tu      time.Duration
	tokens  float64
	last    time.Time
}

// charge takes bits from the bucket and returns how long the frame must
// wait before it has cleared the link. A deficit leaves the bucket in
// debt, which the next frame's wait inherits: frames serialize on the
// link exactly as on a wire.
func (p *pacer) charge(bits int64) time.Duration {
	if p.tu <= 0 || bits <= 0 {
		return 0
	}
	now := time.Now()
	z := float64(p.capBits)
	p.tokens = min(p.tokens+now.Sub(p.last).Seconds()/p.tu.Seconds()*z, z)
	p.last = now
	p.tokens -= float64(bits)
	if p.tokens >= 0 {
		return 0
	}
	return time.Duration(-p.tokens / z * float64(p.tu))
}
