package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"nab"
	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
)

// startServer hosts a session-backed server on an ephemeral port.
func startServer(t *testing.T, lenBytes, window int, advs map[graph.NodeID]core.Adversary) (addr string, shutdown func()) {
	t.Helper()
	sess, err := nab.Open(context.Background(), nab.Config{
		Graph: topo.CompleteBi(4, 1), Source: 1, F: 1,
		LenBytes: lenBytes, Seed: 7, Adversaries: advs,
	}, nab.WithWindow(window))
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
		serve(l, sess, lenBytes, io.Discard)
	}()
	return l.Addr().String(), func() {
		l.Close()
		<-done
		sess.Close()
	}
}

func TestServeEchoesBroadcasts(t *testing.T) {
	const lenBytes, q = 16, 6
	addr, shutdown := startServer(t, lenBytes, 2, nil)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inputs := make([][]byte, q)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{byte(i + 1)}, lenBytes)
		if err := writeFrame(conn, inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < q; i++ {
		rep, err := readReply(conn, lenBytes)
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		if rep.Instance != i+1 {
			t.Errorf("reply %d: instance %d", i+1, rep.Instance)
		}
		if !bytes.Equal(rep.Output, inputs[i]) {
			t.Errorf("reply %d: output %x, want %x", i+1, rep.Output, inputs[i])
		}
		if rep.Mismatch || rep.Phase3 {
			t.Errorf("reply %d: unexpected mismatch/phase3", i+1)
		}
	}
}

func TestServeSurvivesAdversaryAndReconnect(t *testing.T) {
	const lenBytes = 8
	addr, shutdown := startServer(t, lenBytes, 3, map[graph.NodeID]core.Adversary{4: adversary.FalseAlarm{}})
	defer shutdown()

	// First client: the alarmer forces dispute control; outputs must
	// still be the broadcast values.
	var out strings.Builder
	if err := client(&out, addr, 4, lenBytes, 42); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "instance "); got != 4 {
		t.Errorf("client printed %d replies, want 4:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "phase3=true") {
		t.Errorf("expected a dispute-control instance:\n%s", out.String())
	}
	// Second client on the same daemon: the instance sequence continues.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bytes.Repeat([]byte{0xaa}, lenBytes)
	if err := writeFrame(conn, in); err != nil {
		t.Fatal(err)
	}
	rep, err := readReply(conn, lenBytes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instance != 5 {
		t.Errorf("second client got instance %d, want 5", rep.Instance)
	}
	if !bytes.Equal(rep.Output, in) {
		t.Errorf("second client output %x, want %x", rep.Output, in)
	}
}

func TestClientModeViaRun(t *testing.T) {
	addr, shutdown := startServer(t, 64, 2, nil)
	defer shutdown()
	var out strings.Builder
	if err := run([]string{"-connect", addr, "-len", "64", "-q", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "instance "); got != 3 {
		t.Errorf("run client printed %d replies, want 3:\n%s", got, out.String())
	}
}

func TestBadRequestClosesSession(t *testing.T) {
	addr, shutdown := startServer(t, 16, 2, nil)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wrong length: the server drops the session.
	if err := writeFrame(conn, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if _, err := readReply(conn, 16); err == nil {
		t.Error("expected the session to close on a malformed request")
	}
}

// TestServeStopsWhileClientsIdle: closing the listener must end serve even
// with one client mid-session and silent, and another waiting its turn.
func TestServeStopsWhileClientsIdle(t *testing.T) {
	const lenBytes = 16
	addr, shutdown := startServer(t, lenBytes, 2, nil)
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// One round trip proves the daemon is bridging this connection.
	if err := writeFrame(idle, bytes.Repeat([]byte{1}, lenBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := readReply(idle, lenBytes); err != nil {
		t.Fatal(err)
	}
	waiting, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiting.Close()

	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		shutdown()
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after its listener closed")
	}
}

func TestFlagsAndErrors(t *testing.T) {
	if err := run([]string{"-adversary", "3=unknown"}, io.Discard); err == nil {
		t.Error("unknown adversary strategy accepted")
	}
	if err := run([]string{"-topo", "nope"}, io.Discard); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run([]string{"-topo", "k4", "-f", "2"}, io.Discard); err == nil {
		t.Error("f too large accepted")
	}
	if err := run([]string{"-connect", "127.0.0.1:1", "-q", "1"}, io.Discard); err == nil {
		t.Error("client connected to a dead address")
	}
}

// TestServeHalfCloseFlushesReplies pins the wire contract for clients
// that write all requests, half-close the connection, then read: every
// accepted request still gets its reply.
func TestServeHalfCloseFlushesReplies(t *testing.T) {
	const lenBytes, q = 16, 3
	addr, shutdown := startServer(t, lenBytes, 2, nil)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < q; i++ {
		if err := writeFrame(conn, bytes.Repeat([]byte{byte(i + 1)}, lenBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < q; i++ {
		rep, err := readReply(conn, lenBytes)
		if err != nil {
			t.Fatalf("reply %d after half-close: %v", i+1, err)
		}
		if rep.Instance != i+1 {
			t.Errorf("reply %d: instance %d", i+1, rep.Instance)
		}
	}
}

// TestServeDurableRestart restarts the daemon on its WAL: the broadcast
// sequence — dispute state and instance numbering — must resume where
// the killed incarnation left it, and replayed commits must not leak
// into the new connection's reply stream.
func TestServeDurableRestart(t *testing.T) {
	const lenBytes = 8
	dir := t.TempDir()
	open := func() (*nab.Session, string, func()) {
		sess, err := nab.Open(context.Background(), nab.Config{
			Graph: topo.CompleteBi(4, 1), Source: 1, F: 1,
			LenBytes: lenBytes, Seed: 7,
			Adversaries: map[graph.NodeID]core.Adversary{4: adversary.FalseAlarm{}},
		}, nab.WithWindow(2), nab.Recover(dir))
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
			serve(l, sess, lenBytes, io.Discard)
		}()
		return sess, l.Addr().String(), func() {
			l.Close()
			<-done
			sess.Close()
		}
	}

	sess1, addr1, shutdown1 := open()
	var out strings.Builder
	if err := client(&out, addr1, 3, lenBytes, 42); err != nil {
		t.Fatal(err)
	}
	if sess1.RecoveredSeq() != 0 {
		t.Errorf("fresh daemon recovered seq %d", sess1.RecoveredSeq())
	}
	shutdown1()

	sess2, addr2, shutdown2 := open()
	defer shutdown2()
	if got := int(sess2.RecoveredSeq()); got != 3 {
		t.Errorf("restarted daemon recovered seq %d, want 3", got)
	}
	conn, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bytes.Repeat([]byte{0xbb}, lenBytes)
	if err := writeFrame(conn, in); err != nil {
		t.Fatal(err)
	}
	rep, err := readReply(conn, lenBytes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instance != 4 {
		t.Errorf("post-restart reply is instance %d, want 4 (sequence must resume, replayed commits must not leak)", rep.Instance)
	}
	if !bytes.Equal(rep.Output, in) {
		t.Errorf("post-restart output %x, want %x", rep.Output, in)
	}
}
