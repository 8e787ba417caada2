package nab_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"nab"
)

func TestFacadeQuickstart(t *testing.T) {
	g := nab.CompleteGraph(4, 1)
	runner, err := nab.NewRunner(nab.Config{Graph: g, Source: 1, F: 1, LenBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("8 bytes!")
	res, err := runner.RunInstance(input)
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if !bytes.Equal(out, input) {
			t.Errorf("node %d decided %x", v, out)
		}
	}
}

// streamAll submits inputs to a fresh session, drains it and returns the
// commits in order.
func streamAll(t *testing.T, cfg nab.Config, inputs [][]byte, opts ...nab.SessionOption) []*nab.InstanceResult {
	t.Helper()
	ctx := context.Background()
	sess, err := nab.Open(ctx, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	go func() {
		for _, in := range inputs {
			if _, err := sess.Submit(ctx, in); err != nil {
				return
			}
		}
		sess.Drain(ctx)
	}()
	var out []*nab.InstanceResult
	for c := range sess.Commits() {
		out = append(out, c.Result)
	}
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFacadePipelinedRunner drives the pipelined engine, the Session
// default, through the facade with two instances in flight.
func TestFacadePipelinedRunner(t *testing.T) {
	cfg := nab.Config{Graph: nab.CompleteGraph(4, 1), Source: 1, F: 1, LenBytes: 8}
	inputs := [][]byte{[]byte("8 bytes!"), []byte("more of!"), []byte("the same")}
	got := streamAll(t, cfg, inputs, nab.WithWindow(2))
	if len(got) != len(inputs) {
		t.Fatalf("committed %d instances, want %d", len(got), len(inputs))
	}
	for i, ir := range got {
		for v, out := range ir.Outputs {
			if !bytes.Equal(out, inputs[i]) {
				t.Errorf("instance %d: node %d decided %x", i+1, v, out)
			}
		}
	}
}

// TestFacadeTCPTransport runs the pipelined engine's links over the
// facade's loopback TCP transport.
func TestFacadeTCPTransport(t *testing.T) {
	g := nab.CompleteGraph(4, 1)
	tr, err := nab.NewTCPTransport(g)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("via tcp!")
	got := streamAll(t, nab.Config{Graph: g, Source: 1, F: 1, LenBytes: 8}, [][]byte{input}, nab.WithTransport(tr))
	if len(got) != 1 {
		t.Fatalf("committed %d instances, want 1", len(got))
	}
	for v, out := range got[0].Outputs {
		if !bytes.Equal(out, input) {
			t.Errorf("node %d decided %x", v, out)
		}
	}
}

func TestFacadeCapacity(t *testing.T) {
	rep, err := nab.AnalyzeCapacity(nab.PaperFig1Graph(), 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gamma1 != 2 || rep.U1 != 2 {
		t.Errorf("report = %+v", rep)
	}
}

func TestFacadeTopologies(t *testing.T) {
	if _, err := nab.CirculantGraph(8, 1, 1, 2); err != nil {
		t.Error(err)
	}
	if _, err := nab.RandomGraph(rand.New(rand.NewSource(1)), 6, 3, 2); err != nil {
		t.Error(err)
	}
	if _, err := nab.HeterogeneousGraph(5, 3, 8, 1); err != nil {
		t.Error(err)
	}
	if _, err := nab.OneThinLinkGraph(5, 4, 5, 8, 1); err != nil {
		t.Error(err)
	}
	g, err := nab.ParseGraph("1 2 3\n2 1 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.Cap(1, 2) != 3 {
		t.Error("parse wrong")
	}
}

func TestFacadeAdversaries(t *testing.T) {
	g := nab.CompleteGraph(4, 2)
	runner, err := nab.NewRunner(nab.Config{
		Graph: g, Source: 1, F: 1, LenBytes: 8,
		Adversaries: map[nab.NodeID]nab.Adversary{3: nab.BlockFlipperAdversary()},
	})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("attacked")
	res, err := runner.RunInstance(input)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phase3 {
		t.Error("corruption not detected via facade")
	}
	for _, out := range res.Outputs {
		if !bytes.Equal(out, input) {
			t.Error("validity violated via facade")
		}
	}
	// Remaining adversary constructors exist and satisfy the interface.
	for _, a := range []nab.Adversary{
		nab.CrashAdversary(), nab.CodedCorruptorAdversary(),
		nab.FalseAlarmAdversary(), nab.SeededRandomAdversary(5),
	} {
		if a == nil {
			t.Error("nil adversary from constructor")
		}
	}
}
