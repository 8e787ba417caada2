package transport

import (
	"bufio"
	"errors"
	"sync"
	"time"
)

// frameWriter owns the write half of one connection: Send enqueues frames
// and a single writer goroutine drains the queue into a bufio.Writer,
// flushing only when the queue momentarily empties. Bursts — the step
// frames of every instance sharing the link — coalesce into one syscall
// instead of one per frame, and no frame waits on a timer: the flush
// happens the instant there is nothing left to batch.
//
// The queue preserves enqueue order onto the wire, which makes the writer
// the ordering authority of its connection: whatever order the layer
// above releases — pacer order on a polite link, chaos release order
// under a ChaosConfig — is exactly the order the remote reader sees.
// Chaos therefore sits in front of the writer, never inside it: a
// chaos-delayed stream trickles frames in one at a time (each flushed
// immediately, as a real sparse wire would), while burst traffic still
// coalesces.
//
// Write errors are sticky: the first failure is reported by every later
// Send, and queued frames are discarded so senders never block behind a
// dead connection. A failure on a link's very last frame is therefore
// observable only by the remote side — acceptable here because every
// engine round sends a step frame on every out-link (a broken link
// surfaces within one round) and a loss at the true end of a run is
// indistinguishable from a remote crash, which the protocol tolerates by
// design. The goroutine exits when stop (the owning transport's close
// signal) fires, after a final drain and flush; the owning transport must
// join() its writers after signaling stop and before closing
// connections, so every frame accepted before the close signal reaches
// the socket.
type frameWriter struct {
	ch   chan *Message
	stop <-chan struct{}
	// quit retires this writer alone (its connection was replaced by a
	// reconnect); queued frames are abandoned — they were bound for a
	// dead socket.
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}

	mu  sync.Mutex
	err error
}

// frameQueueDepth bounds per-link enqueued frames; a full queue blocks
// Send, which is the same backpressure a blocking socket write applies.
const frameQueueDepth = 256

// errRetired reports an enqueue onto a writer whose connection was
// replaced by a reconnect; the frame belongs to the dead socket's era.
var errRetired = errors.New("transport: frame writer retired")

func newFrameWriter(bw *bufio.Writer, stop <-chan struct{}) *frameWriter {
	fw := &frameWriter{
		ch:   make(chan *Message, frameQueueDepth),
		stop: stop,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go fw.run(bw)
	return fw
}

// retire ends this writer's goroutine and unblocks pending enqueues —
// used when a reconnecting link replaces the writer's dead connection.
// Idempotent.
func (fw *frameWriter) retire() {
	fw.quitOnce.Do(func() { close(fw.quit) })
}

// enqueue hands one frame to the writer goroutine.
func (fw *frameWriter) enqueue(m *Message) error {
	if err := fw.Err(); err != nil {
		return err
	}
	// Refuse once the transport is closing, even if queue space is free:
	// the writer's final drain may already have run, and a frame accepted
	// after it would be silently dropped.
	select {
	case <-fw.stop:
		return ErrClosed
	default:
	}
	select {
	case fw.ch <- m:
		return nil
	case <-fw.stop:
		return ErrClosed
	case <-fw.quit:
		return errRetired
	}
}

// join blocks until the writer goroutine has drained and flushed after
// stop fired, or until grace expires (a writer stuck in a socket write on
// a dead peer is unblocked by the connection close that follows join).
func (fw *frameWriter) join(grace time.Duration) {
	select {
	case <-fw.done:
	case <-time.After(grace):
	}
}

// Err returns the sticky write error, if any.
func (fw *frameWriter) Err() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.err
}

func (fw *frameWriter) setErr(err error) {
	fw.mu.Lock()
	if fw.err == nil {
		fw.err = err
	}
	fw.mu.Unlock()
}

func (fw *frameWriter) run(bw *bufio.Writer) {
	defer close(fw.done)
	broken := false
	write := func(m *Message) {
		if broken {
			return
		}
		if err := WriteFrame(bw, m); err != nil {
			fw.setErr(err)
			broken = true
			return
		}
		mWriterFrames.Inc()
	}
	flush := func() {
		if broken {
			return
		}
		if err := bw.Flush(); err != nil {
			fw.setErr(err)
			broken = true
			return
		}
		mFlushes.Inc()
	}
	for {
		select {
		case m := <-fw.ch:
			write(m)
		drain:
			for {
				select {
				case m = <-fw.ch:
					write(m)
				default:
					break drain
				}
			}
			flush()
		case <-fw.quit:
			return
		case <-fw.stop:
			for {
				select {
				case m := <-fw.ch:
					write(m)
					continue
				default:
				}
				break
			}
			flush()
			return
		}
	}
}
