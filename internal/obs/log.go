// Package obs provides the structured event logger shared by the
// subsystems that act at runtime outside the protocol's data path —
// cluster rejoin, transport reconnect, durability recovery. Events are
// log/slog text lines on stderr:
//
//	time=2026-08-07T12:00:01.234Z level=INFO msg=rewind component=rejoin node=[2] k=5 epoch=2
//
// so chaos/kill-restart runs produce greppable machine-readable traces
// instead of ad-hoc prints. Every logger is enabled by one environment
// variable, NAB_DEBUG; a disabled logger discards.
package obs

import (
	"log/slog"
	"os"
)

// stderr is the one handler every enabled logger writes through.
var stderr = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})

// New returns the logger for component: on stderr at debug level when
// NAB_DEBUG is non-empty, discarding otherwise.
func New(component string) *slog.Logger {
	h := slog.DiscardHandler
	if os.Getenv("NAB_DEBUG") != "" {
		h = stderr
	}
	return slog.New(h).With("component", component)
}

// Always returns the logger for component on stderr whatever NAB_DEBUG
// says — for the rare failure that must be visible in every run.
func Always(component string) *slog.Logger {
	return slog.New(stderr).With("component", component)
}
