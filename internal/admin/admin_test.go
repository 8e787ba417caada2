package admin

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"nab/internal/metrics"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsHealthzPprof(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.NewCounter("nab_admin_test_total", "t").Add(7)
	degraded := false
	s, err := Serve("127.0.0.1:0", Options{
		Registry: reg,
		Checks: []Check{
			{Name: "engine", Probe: func() error { return nil }},
			{Name: "wal", Probe: func() error {
				if degraded {
					return errors.New("sync lag 9")
				}
				return nil
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "nab_admin_test_total 7") {
		t.Fatalf("metrics: code=%d body=%q", code, body)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content-type %q", ct)
	}

	code, body = get(t, base+"/healthz")
	if code != 200 || body != "engine: ok\nwal: ok\n" {
		t.Fatalf("healthz: code=%d body=%q", code, body)
	}
	degraded = true
	code, body = get(t, base+"/healthz")
	if code != 503 || !strings.Contains(body, "wal: sync lag 9") {
		t.Fatalf("degraded healthz: code=%d body=%q", code, body)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof: code=%d", code)
	}
}

func TestNoChecksHealthz(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, fmt.Sprintf("http://%s/healthz", s.Addr()))
	if code != 200 || body != "ok\n" {
		t.Fatalf("code=%d body=%q", code, body)
	}
}

func TestBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", Options{}); err == nil {
		t.Fatal("no error for bad addr")
	}
}
