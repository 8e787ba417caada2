// Package wal is the durable commit/progress log behind NAB's
// crash-recovery: an append-only sequence of CRC-framed records spread
// over segment files, with group-committed fsyncs so a stream of small
// commit records amortizes durability cost, torn-write recovery on open
// (a record cut short by a crash is detected and dropped, never
// mis-replayed), a full-log replay iterator, and segment-level compaction
// below a caller-chosen snapshot position.
//
// The log is content-agnostic: records are (type byte, payload) pairs.
// The NAB-specific record codecs — session metadata, submissions and
// committed instances in records.go, and the engine-state snapshot (the
// only state record; recovery restores from it plus the commits above
// it) in snapshot.go — sit on top; the session layer (nab.WithDurability
// / nab.Recover) and the cluster rejoin and join protocols are built on
// both.
//
// On-disk format, per record:
//
//	[4B little-endian length n][4B CRC32-C][1B type][n-1 bytes payload]
//
// where the CRC covers type+payload. Segments are named wal-%016x.seg and
// numbered from 1; a record never spans segments. Only the final segment
// can carry a torn tail (the log is append-only), so recovery truncates
// the final segment at the first invalid record and fails loudly on
// corruption anywhere earlier.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nab/internal/flight"
)

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 8 MiB.
	SegmentBytes int64
	// SyncInterval batches background durability for plain Appends: a
	// syncer goroutine fsyncs at most once per interval while appends
	// keep arriving. Zero disables the background syncer — records are
	// durable only when AppendSync or Sync is called. Sync/AppendSync
	// group-commit regardless: concurrent callers share one fsync.
	SyncInterval time.Duration
	// NoSync skips fsyncs entirely (benchmarks, tests that simulate
	// post-crash states by hand).
	NoSync bool
}

const (
	headerBytes = 8
	// maxRecordBytes bounds one record's framed length; a header claiming
	// more is treated as torn/corrupt rather than allocated.
	maxRecordBytes = 64 << 20

	defaultSegmentBytes = 8 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an invalid record before the final segment's tail —
// damage recovery must not paper over.
var ErrCorrupt = errors.New("wal: corrupt record")

// Pos addresses a record's segment for compaction: Compact(pos) drops
// every segment older than pos.Seg.
type Pos struct {
	// Seg is the segment index (1-based) the record was appended to.
	Seg uint64
}

// Log is one process's write-ahead log directory. Safe for concurrent
// use.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	bw       *bufio.Writer
	seg      uint64 // active segment index
	segBytes int64
	appended uint64 // records accepted into the buffer
	synced   uint64 // records known durable
	syncing  bool
	err      error // sticky write/sync failure
	// hdr is the reusable record-header scratch; a stack array would be
	// forced to the heap on every Append by bufio's interface write.
	hdr [headerBytes + 1]byte

	kick      chan struct{} // wakes the background syncer
	closed    chan struct{}
	closeOnce sync.Once
}

// Open opens (or creates) the log in dir, truncating a torn tail off the
// final segment. Records appended before the crash and fully framed are
// preserved; a half-written final record is dropped.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		dir:    dir,
		opt:    opt,
		kick:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	// A crash between creating a fresh segment and making its first
	// record durable leaves a trailing segment with no valid prefix; the
	// preceding segment then still holds the true tail — possibly torn,
	// if the rotation's seal fsync itself was lost. Anchoring the lenient
	// scan to the empty trailing file would freeze torn records into an
	// earlier segment, where replay is strict, so step backward past
	// record-free trailing segments and re-anchor the tail scan.
	for len(segs) > 1 {
		end, err := scanSegment(l.segPath(segs[len(segs)-1]), true)
		if err != nil {
			return nil, err
		}
		if end != 0 {
			break
		}
		if err := os.Remove(l.segPath(segs[len(segs)-1])); err != nil {
			return nil, fmt.Errorf("wal: drop empty trailing segment: %w", err)
		}
		segs = segs[:len(segs)-1]
	}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		end, err := scanSegment(l.segPath(last), true)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(l.segPath(last), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.seg, l.segBytes = f, last, end
		l.bw = bufio.NewWriterSize(f, 1<<16)
	}
	if opt.SyncInterval > 0 && !opt.NoSync {
		go l.backgroundSync()
	}
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

func (l *Log) segPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", idx))
}

// segments lists existing segment indices in order.
func (l *Log) segments() ([]uint64, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var out []uint64
	for _, e := range ents {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%016x.seg", &idx); n == 1 {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// openSegment creates and activates segment idx. Callers hold mu (or own
// the log exclusively during Open).
func (l *Log) openSegment(idx uint64) error {
	f, err := os.OpenFile(l.segPath(idx), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if !l.opt.NoSync {
		// Make the directory entry itself durable, so a crash right after
		// rotation cannot lose the whole new segment.
		d, err := os.Open(l.dir)
		if err == nil {
			err = d.Sync()
			d.Close()
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: sync dir: %w", err)
		}
	}
	l.f, l.seg, l.segBytes = f, idx, 0
	l.bw = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// Append frames one record into the log buffer and returns its position.
// Durability is deferred to the next Sync/AppendSync (or the background
// syncer); the steady-state path performs no allocation.
func (l *Log) Append(typ byte, payload []byte) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	//nab:ignore lockedblock -- rotation fsyncs under l.mu only at segment boundaries (sealing the old file before appends resume); steady-state commits use Sync's unlock-around-fsync
	return l.appendLocked(typ, payload)
}

//nab:allocfree
func (l *Log) appendLocked(typ byte, payload []byte) (Pos, error) {
	if l.err != nil {
		return Pos{}, l.err
	}
	n := len(payload) + 1
	if n > maxRecordBytes {
		return Pos{}, fmt.Errorf("wal: record of %d bytes exceeds limit", n)
	}
	if l.segBytes >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return Pos{}, err
		}
	}
	hdr := l.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[8] = typ
	crc := crc32.Update(0, crcTable, hdr[8:9])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := l.bw.Write(hdr); err != nil {
		l.fail(err)
		return Pos{}, err
	}
	if _, err := l.bw.Write(payload); err != nil {
		l.fail(err)
		return Pos{}, err
	}
	l.segBytes += int64(headerBytes + n)
	l.appended++
	mAppends.Inc()
	mAppendBytes.Add(int64(headerBytes + n))
	if flight.Enabled() {
		et := flight.EvWALAppend
		if typ == TypeSnapshot {
			et = flight.EvWALSnapshot
		}
		flight.Record(flight.Event{Type: et, Node: -1,
			Arg: uint64(headerBytes + n), Step: uint32(typ)})
	}
	pos := Pos{Seg: l.seg}
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return pos, nil
}

// rotateLocked seals the active segment (flush+fsync) and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.bw.Flush(); err != nil {
		l.fail(err)
		return err
	}
	if !l.opt.NoSync {
		start := time.Now()
		err := l.f.Sync()
		mFsync.Observe(time.Since(start).Seconds())
		if err != nil {
			l.fail(err)
			return err
		}
	}
	l.synced = l.appended
	if err := l.f.Close(); err != nil {
		l.fail(err)
		return err
	}
	return l.openSegment(l.seg + 1)
}

func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}

// Sync makes every record appended so far durable. Concurrent callers
// group-commit: while one fsync is in flight, later callers wait and are
// covered by the next one, so a burst of commits costs O(1) fsyncs.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.appended
	for {
		if l.err != nil {
			return l.err
		}
		if l.synced >= target {
			return nil
		}
		if !l.syncing {
			break
		}
		l.cond.Wait()
	}
	l.syncing = true
	upto := l.appended
	batch := upto - l.synced
	if err := l.bw.Flush(); err != nil {
		l.syncing = false
		l.fail(err)
		return err
	}
	f, seg := l.f, l.seg
	l.mu.Unlock()
	var err error
	if !l.opt.NoSync {
		start := time.Now()
		err = f.Sync()
		mFsync.Observe(time.Since(start).Seconds())
		mFsyncBatch.Observe(float64(batch))
		if flight.Enabled() {
			flight.Record(flight.Event{Type: flight.EvWALFsync, Node: -1, Arg: batch})
		}
	}
	l.mu.Lock()
	l.syncing = false
	if err != nil && seg == l.seg {
		l.fail(err)
		return err
	}
	// seg != l.seg: a concurrent Append rotated while we fsynced — the
	// rotation flushed, fsynced and closed our file (possibly failing our
	// Sync with ErrClosed), and already advanced l.synced past upto.
	if upto > l.synced {
		l.synced = upto
	}
	l.cond.Broadcast()
	if l.err != nil {
		return l.err
	}
	return nil
}

// Lag returns how many appended records are not yet known durable — the
// WAL sync lag surfaced by /healthz.
func (l *Log) Lag() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended - l.synced
}

// AppendSync appends one record and returns once it is durable —
// the submission-accept path, where acknowledging a payload promises it
// survives a crash.
func (l *Log) AppendSync(typ byte, payload []byte) (Pos, error) {
	pos, err := l.Append(typ, payload)
	if err != nil {
		return pos, err
	}
	return pos, l.Sync()
}

// backgroundSync batches durability for plain Appends: at most one fsync
// per SyncInterval while records keep arriving.
func (l *Log) backgroundSync() {
	for {
		select {
		case <-l.closed:
			return
		case <-l.kick:
		}
		select {
		case <-l.closed:
			return
		case <-time.After(l.opt.SyncInterval):
		}
		l.Sync()
	}
}

// Replay iterates every record currently in the log, oldest first,
// calling fn(type, payload, pos); the payload slice is reused between
// calls. Replay is meant for the recovery path, before this process
// appends; it reads the segment files directly. A non-nil fn error
// aborts the replay and is returned.
func (l *Log) Replay(fn func(typ byte, payload []byte, pos Pos) error) error {
	l.mu.Lock()
	if err := l.bw.Flush(); err != nil {
		l.fail(err)
		l.mu.Unlock()
		return err
	}
	segs, err := l.segments()
	last := l.seg
	l.mu.Unlock()
	if err != nil {
		return err
	}
	var buf []byte
	for _, idx := range segs {
		f, err := os.Open(l.segPath(idx))
		if err != nil {
			return fmt.Errorf("wal: replay segment %d: %w", idx, err)
		}
		err = replayReader(bufio.NewReaderSize(f, 1<<16), idx != last, func(typ byte, payload []byte) error {
			return fn(typ, payload, Pos{Seg: idx})
		}, &buf)
		f.Close()
		if err != nil {
			return fmt.Errorf("wal: segment %d: %w", idx, err)
		}
	}
	return nil
}

// replayReader decodes records from r. In the final segment (strict ==
// false) a torn or invalid tail ends the replay cleanly; anywhere else it
// is ErrCorrupt.
func replayReader(r *bufio.Reader, strict bool, fn func(typ byte, payload []byte) error, buf *[]byte) error {
	for {
		typ, payload, err := readRecord(r, buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if strict || errors.Is(err, errReplayAbort) {
				return err
			}
			return nil // torn tail: ignore, recovery truncated or will truncate it
		}
		if err := fn(typ, payload); err != nil {
			return fmt.Errorf("%w: %w", errReplayAbort, err)
		}
	}
}

// errReplayAbort marks an error returned by the caller's replay fn, as
// opposed to a framing error, so a lenient tail scan does not swallow it.
var errReplayAbort = errors.New("wal: replay aborted")

// readRecord reads one framed record. io.EOF means a clean end;
// ErrCorrupt wraps every framing violation.
func readRecord(r *bufio.Reader, buf *[]byte) (byte, []byte, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxRecordBytes {
		return 0, nil, fmt.Errorf("%w: record length %d", ErrCorrupt, n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: short body: %v", ErrCorrupt, err)
	}
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	//nab:ignore wirebounds -- len(body) == n and 1 <= n <= maxRecordBytes is enforced right after the header parse
	return body[0], body[1:], nil
}

// scanSegment walks one segment and returns the byte offset of its valid
// end. With lenientTail (the final segment), the first invalid record
// marks the end; otherwise it is ErrCorrupt.
func scanSegment(path string, lenientTail bool) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: scan segment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var end int64
	var buf []byte
	for {
		_, payload, err := readRecord(br, &buf)
		if err == io.EOF {
			return end, nil
		}
		if err != nil {
			if lenientTail {
				return end, nil
			}
			return 0, err
		}
		end += int64(headerBytes + 1 + len(payload))
	}
}

// Compact removes every segment strictly older than keep.Seg — typically
// the position of the latest snapshot record, making startup replay
// proportional to the live suffix instead of the full history. The active
// segment is never removed.
func (l *Log) Compact(keep Pos) error {
	segs, err := l.segments()
	if err != nil {
		return err
	}
	l.mu.Lock()
	active := l.seg
	l.mu.Unlock()
	for _, idx := range segs {
		if idx >= keep.Seg || idx == active {
			continue
		}
		if err := os.Remove(l.segPath(idx)); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
	}
	return nil
}

// Close flushes, fsyncs and closes the log. Idempotent.
func (l *Log) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.closed)
		err = l.Sync()
		l.mu.Lock()
		defer l.mu.Unlock()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		if l.err == nil {
			l.err = errors.New("wal: log closed")
		}
	})
	return err
}
