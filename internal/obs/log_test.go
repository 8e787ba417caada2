package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixed(l *Logger) *Logger {
	l.now = func() time.Time { return time.Date(2026, 8, 7, 12, 0, 1, 234e6, time.UTC) }
	return l
}

func TestLogfmtLine(t *testing.T) {
	var sb strings.Builder
	l := fixed(NewWriter("rejoin", &sb))
	l.Info("rewind", "k", 5, "epoch", 2, "err", errors.New("boom boom"))
	want := `ts=2026-08-07T12:00:01.234Z level=info component=rejoin event=rewind k=5 epoch=2 err="boom boom"` + "\n"
	if sb.String() != want {
		t.Fatalf("got %q, want %q", sb.String(), want)
	}
}

func TestBoundFieldsAndLevels(t *testing.T) {
	var sb strings.Builder
	l := fixed(NewWriter("ctrl", &sb)).With("node", "0,1")
	l.Debug("open", "round", 3)
	l.Error("fail", "dur", 1500*time.Millisecond)
	out := sb.String()
	for _, want := range []string{
		"level=debug component=ctrl event=open node=0,1 round=3",
		"level=error component=ctrl event=fail node=0,1 dur=1.5s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDisabledLoggerIsSilent(t *testing.T) {
	var sb strings.Builder
	l := NewWriter("x", &sb)
	l.SetEnabled(false)
	l.Info("noise")
	var nilLogger *Logger
	if nilLogger.Enabled() {
		t.Fatal("nil logger reports enabled")
	}
	if sb.Len() != 0 {
		t.Fatalf("disabled logger wrote %q", sb.String())
	}
}

func TestEnvSwitch(t *testing.T) {
	t.Setenv("NAB_DEBUG", "")
	if New("b").Enabled() {
		t.Fatal("logger enabled without NAB_DEBUG")
	}
	t.Setenv("NAB_DEBUG", "1")
	if !New("c").Enabled() {
		t.Fatal("NAB_DEBUG did not enable logger")
	}
}

func TestOddPairs(t *testing.T) {
	var sb strings.Builder
	fixed(NewWriter("x", &sb)).Info("e", "lone")
	if !strings.Contains(sb.String(), "lone=!MISSING") {
		t.Fatalf("odd pair not flagged: %q", sb.String())
	}
}

func TestConcurrentEmit(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	l := NewWriter("x", w)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info("tick", "g", i, "j", j)
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	mu.Unlock()
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "event=tick") {
			t.Fatalf("garbled line: %q", line)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
