// Package obs provides the structured event logger shared by the
// subsystems that act at runtime outside the protocol's data path —
// cluster rejoin, transport reconnect, durability recovery. Events are
// logfmt lines on stderr:
//
//	ts=2026-08-07T12:00:01.234Z level=info component=rejoin event=rewind k=5 epoch=2
//
// so chaos/kill-restart runs produce greppable machine-readable traces
// instead of ad-hoc prints. Every logger is enabled by one environment
// variable, NAB_DEBUG, and disabled loggers are a single atomic load per
// call.
package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders event severities. Debug events are suppressed unless the
// logger is enabled; Info and Error are emitted whenever the logger is.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	}
	return "error"
}

// Logger emits logfmt events for one component. The zero value is a
// disabled logger; construct with New or NewWriter.
type Logger struct {
	component string
	bound     string // pre-rendered " k=v" pairs from With
	enabled   atomic.Bool
	mu        *sync.Mutex
	w         io.Writer
	now       func() time.Time
}

var stderrMu sync.Mutex

// New returns a logger for component, enabled when NAB_DEBUG is
// non-empty. Output goes to stderr, serialized with every other obs logger
// in the process.
func New(component string) *Logger {
	l := &Logger{component: component, mu: &stderrMu, w: os.Stderr, now: time.Now}
	l.enabled.Store(os.Getenv("NAB_DEBUG") != "")
	return l
}

// NewWriter returns an always-enabled logger writing to w — for tests.
func NewWriter(component string, w io.Writer) *Logger {
	l := &Logger{component: component, mu: &sync.Mutex{}, w: w, now: time.Now}
	l.enabled.Store(true)
	return l
}

// Enabled reports whether events will be emitted.
func (l *Logger) Enabled() bool { return l != nil && l.enabled.Load() }

// SetEnabled overrides the env-var switch (tests, runtime toggles).
func (l *Logger) SetEnabled(on bool) { l.enabled.Store(on) }

// With returns a logger that appends the given key/value pairs to every
// event — e.g. the cluster node's local instance set.
func (l *Logger) With(kv ...any) *Logger {
	nl := &Logger{
		component: l.component,
		bound:     l.bound + renderPairs(kv),
		mu:        l.mu,
		w:         l.w,
		now:       l.now,
	}
	nl.enabled.Store(l.enabled.Load())
	return nl
}

// Debug emits event at debug level with the given key/value pairs.
func (l *Logger) Debug(event string, kv ...any) { l.emit(LevelDebug, event, kv) }

// Info emits event at info level.
func (l *Logger) Info(event string, kv ...any) { l.emit(LevelInfo, event, kv) }

// Error emits event at error level.
func (l *Logger) Error(event string, kv ...any) { l.emit(LevelError, event, kv) }

func (l *Logger) emit(level Level, event string, kv []any) {
	if !l.Enabled() {
		return
	}
	var sb strings.Builder
	sb.WriteString("ts=")
	sb.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	sb.WriteString(" level=")
	sb.WriteString(level.String())
	sb.WriteString(" component=")
	sb.WriteString(l.component)
	sb.WriteString(" event=")
	sb.WriteString(quoteIfNeeded(event))
	sb.WriteString(l.bound)
	sb.WriteString(renderPairs(kv))
	sb.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, sb.String())
	l.mu.Unlock()
}

// renderPairs renders alternating key, value arguments as " k=v" pairs.
// An odd trailing key is rendered with value "!MISSING".
func renderPairs(kv []any) string {
	if len(kv) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i < len(kv); i += 2 {
		sb.WriteByte(' ')
		sb.WriteString(fmt.Sprint(kv[i]))
		sb.WriteByte('=')
		if i+1 < len(kv) {
			sb.WriteString(renderValue(kv[i+1]))
		} else {
			sb.WriteString("!MISSING")
		}
	}
	return sb.String()
}

func renderValue(v any) string {
	switch v := v.(type) {
	case string:
		return quoteIfNeeded(v)
	case error:
		if v == nil {
			return "nil"
		}
		return quoteIfNeeded(v.Error())
	case time.Duration:
		return v.String()
	case nil:
		return "nil"
	default:
		return quoteIfNeeded(fmt.Sprint(v))
	}
}

func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
