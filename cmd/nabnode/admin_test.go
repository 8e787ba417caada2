package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// freeAdminBase returns a port base whose base+1..base+n all bind, probed
// downward from the floor of the kernel's ephemeral range. The cluster's
// own endpoints are ephemeral binds, so a region derived from one can
// collide with ports the cluster has just reserved; below the floor
// nothing is handed out implicitly (CI's live-cluster job pins 19300 for
// the same reason).
func freeAdminBase(t *testing.T, n int) int {
	t.Helper()
	floor := 32768
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(raw)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				floor = v
			}
		}
	}
	for base := floor - n - 1; base > 1024; base -= n {
		var held []net.Listener
		for v := 1; v <= n; v++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+v))
			if err != nil {
				break
			}
			held = append(held, l)
		}
		for _, l := range held {
			l.Close()
		}
		if len(held) == n {
			return base
		}
	}
	t.Fatal("no free admin port region below the ephemeral range")
	return 0
}

// TestSpawnLocalAdminEndpoints brings up a real multi-process cluster
// with -admin-base and scrapes a child's /metrics and /healthz while it
// runs: the exposition must be well-formed Prometheus text carrying nab_*
// families, and the health probes must answer.
func TestSpawnLocalAdminEndpoints(t *testing.T) {
	// Node v serves admin on base+v.
	base := freeAdminBase(t, 4)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-spawn-local", "-topo", "k4", "-f", "1", "-len", "24",
			"-q", "64", "-window", "4", "-seed", "11",
			"-admin-base", fmt.Sprint(base),
		}, io.Discard, io.Discard)
	}()

	// Poll node 1's admin endpoint until the child has it up (or the run
	// already ended — then the scrape missed its window and we only check
	// the run result).
	adminURL := fmt.Sprintf("http://127.0.0.1:%d", base+1)
	var body string
	scraped := false
	deadline := time.After(2 * time.Minute)
poll:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("spawn-local run: %v", err)
			}
			break poll
		case <-deadline:
			t.Fatal("cluster did not finish within the deadline")
		default:
		}
		resp, err := http.Get(adminURL + "/metrics")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		scraped = true

		hcode := 0
		var hbody string
		if hresp, err := http.Get(adminURL + "/healthz"); err == nil {
			hraw, _ := io.ReadAll(hresp.Body)
			hresp.Body.Close()
			hcode, hbody = hresp.StatusCode, string(hraw)
		}
		if hcode != http.StatusOK {
			t.Errorf("/healthz on a live node: status %d body %q", hcode, hbody)
		} else if !strings.Contains(hbody, "engine: ok") || !strings.Contains(hbody, "wal: ok") {
			t.Errorf("/healthz probes missing from %q", hbody)
		}
		break
	}
	if scraped {
		if !strings.Contains(body, "# HELP nab_") || !strings.Contains(body, "# TYPE nab_") {
			t.Errorf("live /metrics lacks nab_* exposition metadata:\n%.1000s", body)
		}
		if !strings.Contains(body, "nab_transport_frames_sent_total") {
			t.Errorf("live /metrics lacks per-link transport counters:\n%.1000s", body)
		}
		if err := <-done; err != nil {
			t.Fatalf("spawn-local run after scrape: %v", err)
		}
	} else {
		t.Log("run finished before a scrape landed; exposition checked only in cmd/nabserve")
	}
}
