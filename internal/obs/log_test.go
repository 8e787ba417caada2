package obs

import (
	"context"
	"log/slog"
	"testing"
)

func TestDisabledLoggerIsSilent(t *testing.T) {
	t.Setenv("NAB_DEBUG", "")
	l := New("x")
	if l.Handler() != slog.DiscardHandler {
		t.Fatalf("logger without NAB_DEBUG writes through %T", l.Handler())
	}
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelError} {
		if l.Enabled(context.Background(), lvl) {
			t.Errorf("logger without NAB_DEBUG enabled at %v", lvl)
		}
	}
}

func TestEnvSwitch(t *testing.T) {
	ctx := context.Background()
	t.Setenv("NAB_DEBUG", "")
	if !Always("b").Enabled(ctx, slog.LevelError) {
		t.Fatal("Always logger disabled without NAB_DEBUG")
	}
	t.Setenv("NAB_DEBUG", "1")
	if !New("c").Enabled(ctx, slog.LevelDebug) {
		t.Fatal("NAB_DEBUG did not enable debug events")
	}
}
