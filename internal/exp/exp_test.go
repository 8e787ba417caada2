package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestE1Fig1(t *testing.T) {
	var buf bytes.Buffer
	if err := E1Fig1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MINCUT(G,1,2)", "gamma", "U_k", "{1 2 4}"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestE2Fig2(t *testing.T) {
	var buf bytes.Buffer
	if err := E2Fig2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tree 1 edges") {
		t.Errorf("E2 output malformed:\n%s", buf.String())
	}
}

func TestE3Theorem1Small(t *testing.T) {
	var buf bytes.Buffer
	if err := E3Theorem1(&buf, 60, 11); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bound") {
		t.Errorf("E3 output malformed:\n%s", buf.String())
	}
}

func TestE4Small(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E4ThroughputVsCapacity(&buf, 0, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no E4 rows")
	}
	for _, r := range rows {
		// Theorem 3 (algebra): bound >= UB * guarantee.
		if r.TNABBound < r.CapacityUB*r.Guarantee-1e-9 {
			t.Errorf("%s: TNAB %v < UB*guarantee %v", r.Name, r.TNABBound, r.CapacityUB*r.Guarantee)
		}
		// Theorem 2 sanity: no measurement beats the capacity bound.
		if r.Asymptotic > r.CapacityUB+1e-9 {
			t.Errorf("%s: asymptotic rate %v exceeds capacity UB %v", r.Name, r.Asymptotic, r.CapacityUB)
		}
		// Theorem 3, finite-L: the clean rate must reach the guaranteed
		// fraction up to the flag-broadcast overhead (generous 40%% slack
		// absorbs it at L=32k bits; EXPERIMENTS.md records exact numbers).
		if r.Asymptotic < r.CapacityUB*r.Guarantee*0.6 {
			t.Errorf("%s: asymptotic rate %v below 60%%%% of guaranteed %v", r.Name, r.Asymptotic, r.CapacityUB*r.Guarantee)
		}
		if r.AdvFiniteQ <= 0 {
			t.Errorf("%s: adversarial throughput %v", r.Name, r.AdvFiniteQ)
		}
	}
}

func TestE5Small(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E5Pipelining(&buf, 2048, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("need at least two topology points")
	}
	// Pipelining must never be slower, and the gap must widen with hops.
	for _, r := range rows {
		if r.Pipelined > r.Unpipelined+1e-9 {
			t.Errorf("n=%d: pipelined %v slower than unpipelined %v", r.N, r.Pipelined, r.Unpipelined)
		}
	}
	firstGap := rows[0].Unpipelined - rows[0].Pipelined
	lastGap := rows[len(rows)-1].Unpipelined - rows[len(rows)-1].Pipelined
	if lastGap < firstGap {
		t.Errorf("pipelining gap shrank with hop count: %v -> %v", firstGap, lastGap)
	}
	// The measured streaming simulation must match the Appendix D formula:
	// sequential ~ Q*hops*hopTime, pipelined ~ (Q+hops-1)*hopTime.
	for _, r := range rows {
		if r.SimPipe >= r.SimSeq {
			t.Errorf("n=%d: measured pipelining not faster: %v vs %v", r.N, r.SimPipe, r.SimSeq)
		}
		hopTime := r.SimSeq / float64(r.SimQ*r.Hops)
		wantPipe := float64(r.SimQ+r.Hops-1) * hopTime
		if r.SimPipe > wantPipe*1.15 || r.SimPipe < wantPipe*0.85 {
			t.Errorf("n=%d: measured pipelined %v deviates from Appendix D prediction %v", r.N, r.SimPipe, wantPipe)
		}
	}
}

func TestE6Small(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E6Amortization(&buf, 32, []int{1, 8, 64}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Dispute share must shrink as Q grows; throughput must rise.
	if rows[len(rows)-1].DisputeShare > rows[0].DisputeShare {
		t.Errorf("dispute share grew with Q: %v -> %v", rows[0].DisputeShare, rows[len(rows)-1].DisputeShare)
	}
	if rows[len(rows)-1].Throughput < rows[0].Throughput {
		t.Errorf("throughput fell with Q: %v -> %v", rows[0].Throughput, rows[len(rows)-1].Throughput)
	}
}

func TestE7Small(t *testing.T) {
	var buf bytes.Buffer
	rows, err := E7Baselines(&buf, 2048, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatal("not enough capacity points")
	}
	// The intro's "arbitrarily worse" behaviour, at finite L: NAB's rate
	// grows with capacity while the oblivious baseline stays pinned to the
	// thin link, so the ratio widens (the separation is unbounded as
	// L -> infinity; the constant-size flag broadcast caps it at finite L).
	first, last := rows[0], rows[len(rows)-1]
	if last.NAB <= first.NAB*1.5 {
		t.Errorf("NAB rate did not grow with capacity: %v -> %v", first.NAB, last.NAB)
	}
	if last.EIG > first.EIG*1.5 || first.EIG > last.EIG*1.5 {
		t.Errorf("EIG rate not pinned by thin link: %v -> %v", first.EIG, last.EIG)
	}
	if last.Ratio < 2*first.Ratio {
		t.Errorf("ratio growth too weak: %v -> %v", first.Ratio, last.Ratio)
	}
}

func TestE8Small(t *testing.T) {
	var buf bytes.Buffer
	if err := E8Correctness(&buf, 6, 8, 17); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "violations") {
		t.Errorf("E8 output malformed:\n%s", buf.String())
	}
}
