package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"nab"
	"nab/internal/admin"
	"nab/internal/topo"
)

// startAdminServer hosts a daemon with its admin endpoint, both on
// ephemeral ports, returning the server struct for drain-flag access.
func startAdminServer(t *testing.T, lenBytes int) (srv *server, addr, adminAddr string, shutdown func()) {
	t.Helper()
	sess, err := nab.Open(context.Background(), nab.Config{
		Graph: topo.CompleteBi(4, 1), Source: 1, F: 1,
		LenBytes: lenBytes, Seed: 7,
	}, nab.WithWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	srv = &server{sess: sess, lenBytes: lenBytes, w: io.Discard}
	adm, err := admin.Serve("127.0.0.1:0", admin.Options{Checks: adminChecks(srv)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serve(l)
	}()
	return srv, l.Addr().String(), adm.Addr(), func() {
		l.Close()
		<-done
		adm.Close()
		sess.Close()
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminScrapesLiveMetrics is the e2e assertion of the observability
// layer: after a client streams broadcasts through the daemon, /metrics
// exposes a non-zero nab_commits_total (and the commit-latency histogram)
// in Prometheus text format, and /healthz reports ready.
func TestAdminScrapesLiveMetrics(t *testing.T) {
	const lenBytes, q = 16, 5
	_, addr, adminAddr, shutdown := startAdminServer(t, lenBytes)
	defer shutdown()

	var out strings.Builder
	if err := client(&out, addr, q, lenBytes, 42); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, "http://"+adminAddr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d:\n%s", code, body)
	}
	if !strings.Contains(body, "# HELP nab_commits_total") ||
		!strings.Contains(body, "# TYPE nab_commits_total counter") {
		t.Errorf("exposition lacks nab_commits_total metadata:\n%s", body)
	}
	commits := -1.0
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "nab_commits_total "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			commits = f
		}
	}
	if commits <= 0 {
		t.Errorf("nab_commits_total = %v after a %d-request stream, want > 0", commits, q)
	}
	if !strings.Contains(body, `nab_commit_latency_seconds_bucket{le="+Inf"}`) {
		t.Errorf("exposition lacks the commit-latency histogram:\n%s", body)
	}

	code, body = httpGet(t, "http://"+adminAddr+"/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz status %d:\n%s", code, body)
	}
	for _, probe := range []string{"engine: ok", "draining: ok", "wal: ok"} {
		if !strings.Contains(body, probe) {
			t.Errorf("/healthz lacks %q:\n%s", probe, body)
		}
	}
}

// TestServeDrainingRejectsSecondClient pins the typed refusal: a client
// connecting while the daemon drains an abandoned stream gets a single
// {"error":"draining: ..."} frame (not a reset), and /healthz turns
// not-ready for the duration.
func TestServeDrainingRejectsSecondClient(t *testing.T) {
	const lenBytes = 16
	srv, addr, adminAddr, shutdown := startAdminServer(t, lenBytes)
	defer shutdown()

	srv.draining.Store(true)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readReply(conn, lenBytes)
	conn.Close()
	if err != nil {
		t.Fatalf("refusal frame: %v", err)
	}
	if !strings.Contains(rep.Error, "draining") {
		t.Errorf("refusal error = %q, want a draining refusal", rep.Error)
	}
	if code, body := httpGet(t, "http://"+adminAddr+"/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "draining") {
		t.Errorf("/healthz while draining: status %d body %q, want 503 mentioning draining", code, body)
	}

	// Drain over: the next client streams normally.
	srv.draining.Store(false)
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bytes.Repeat([]byte{0xcd}, lenBytes)
	if err := writeFrame(conn, in); err != nil {
		t.Fatal(err)
	}
	rep, err = readReply(conn, lenBytes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Error != "" || !bytes.Equal(rep.Output, in) {
		t.Errorf("post-drain reply error=%q output=%x, want echo of %x", rep.Error, rep.Output, in)
	}
}

// TestDrainFlagFollowsAbandonedStream drives the real drain path: a
// client submits, then slams the connection shut (RST via SetLinger(0))
// so the bridge switches to draining its outstanding commits.
func TestDrainFlagFollowsAbandonedStream(t *testing.T) {
	const lenBytes, q = 16, 4
	srv, addr, _, shutdown := startAdminServer(t, lenBytes)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < q; i++ {
		if err := writeFrame(conn, bytes.Repeat([]byte{byte(i + 1)}, lenBytes)); err != nil {
			t.Fatal(err)
		}
	}
	conn.(*net.TCPConn).SetLinger(0) // abort: reset instead of FIN
	conn.Close()

	// The drain must end on its own (all outstanding commits consumed),
	// and the daemon must accept a fresh client afterwards.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { conn2.Close() }() // whichever reconnect is live at exit
	in := bytes.Repeat([]byte{0xee}, lenBytes)
	for {
		if err := writeFrame(conn2, in); err != nil {
			t.Fatal(err)
		}
		rep, err := readReply(conn2, lenBytes)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Error == "" {
			if !bytes.Equal(rep.Output, in) {
				t.Fatalf("post-drain output %x, want %x", rep.Output, in)
			}
			break
		}
		if !strings.Contains(rep.Error, "draining") {
			t.Fatalf("unexpected refusal %q", rep.Error)
		}
		// Refused mid-drain: reconnect until the drain completes.
		conn2.Close()
		conn2, err = net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.draining.Load() {
		t.Error("draining flag still set after the drain completed")
	}
}
