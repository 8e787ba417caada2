package core

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"nab/internal/coding"
	"nab/internal/dispute"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/spantree"
	"nab/internal/topo"
)

func cloneChunk(c BitChunk) BitChunk {
	return BitChunk{Bytes: append([]byte(nil), c.Bytes...), BitLen: c.BitLen}
}

// buildAuditFixture assembles a full honest execution's claims on K4 by
// running the node-state machinery directly (no simulator), so audit
// behaviour can be probed with surgical corruptions.
func buildAuditFixture(t testing.TB) (*auditContext, map[graph.NodeID]*Claims, []byte) {
	t.Helper()
	g := topo.CompleteBi(4, 1)
	const (
		lenBytes = 4
		rho      = 2
		f        = 1
	)
	lenBits := 8 * lenBytes
	symBits := uint((lenBits + rho - 1) / rho)
	field, err := gf.New(symBits)
	if err != nil {
		t.Fatal(err)
	}
	omega := dispute.Omega(g, dispute.NewSet(), g.NumNodes()-f)
	rng := rand.New(rand.NewSource(31))
	scheme, _, err := coding.GenerateVerified(g, rho, field, omega, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := g.BroadcastMincut(1)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := spantree.PackArborescences(g, 1, int(gamma))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte{0xDE, 0xAD, 0xBE, 0xEF}

	// Execute the deterministic protocol by hand: source splits, everyone
	// receives exactly what the tree parent sent.
	blocks, err := splitBits(input, lenBits, len(trees))
	if err != nil {
		t.Fatal(err)
	}
	states := map[graph.NodeID]*nodeState{}
	for _, v := range g.Nodes() {
		states[v] = newNodeState(v, Honest{}, 1, input, lenBits, rho, symBits, 1, trees, scheme, g)
	}
	// Phase 1 (no corruption): propagate down each tree in depth order.
	for ti, tree := range trees {
		order := g.Nodes()
		// repeat passes until all assigned (small graphs: two passes max)
		for pass := 0; pass < g.NumNodes(); pass++ {
			for _, c := range order {
				p, ok := tree.Parent[c]
				if !ok || states[c].haveBlock[ti] {
					continue
				}
				if p == 1 || states[p].haveBlock[ti] {
					var blk BitChunk
					if p == 1 {
						blk = blocks[ti]
					} else {
						blk = states[p].myBlocks[ti]
					}
					states[c].myBlocks[ti] = cloneChunk(blk)
					states[c].haveBlock[ti] = true
					// Claims get independent copies so tests can corrupt
					// one record without aliasing others.
					states[c].recvClaims = append(states[c].recvClaims, TreeEdgeClaim{Tree: ti, From: p, To: c, Block: cloneChunk(blk)})
					states[p].sentClaims = append(states[p].sentClaims, TreeEdgeClaim{Tree: ti, From: p, To: c, Block: cloneChunk(blk)})
				}
			}
		}
	}
	for _, st := range states {
		if err := st.finishPhase1(); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: encode on every edge, record and check.
	sent := map[[2]graph.NodeID][]gf.Elem{}
	for _, e := range g.Edges() {
		syms, err := scheme.Encode(e.From, e.To, states[e.From].x)
		if err != nil {
			t.Fatal(err)
		}
		sent[[2]graph.NodeID{e.From, e.To}] = syms
		states[e.From].sentCoded = append(states[e.From].sentCoded, CodedClaim{From: e.From, To: e.To, Symbols: syms})
	}
	for _, e := range g.Edges() {
		syms := sent[[2]graph.NodeID{e.From, e.To}]
		states[e.To].recvCoded = append(states[e.To].recvCoded, CodedClaim{From: e.From, To: e.To, Symbols: syms})
		mm, err := scheme.Check(e.From, e.To, states[e.To].x, syms)
		if err != nil {
			t.Fatal(err)
		}
		if mm {
			states[e.To].flag = true
		}
	}
	claims := map[graph.NodeID]*Claims{}
	for v, st := range states {
		claims[v] = st.buildClaims()
	}
	ac := &auditContext{
		gk: g, source: 1, trees: trees, scheme: scheme,
		lenBits: lenBits, rho: rho, symBits: symBits, stripes: 1,
	}
	return ac, claims, input
}

func TestAuditCleanRun(t *testing.T) {
	ac, claims, input := buildAuditFixture(t)
	res := ac.Audit(claims)
	if !bytes.Equal(res.Output, input) {
		t.Errorf("output = %x, want %x", res.Output, input)
	}
	if len(res.Disputes) != 0 || len(res.Faulty) != 0 {
		t.Errorf("clean run found disputes %v faulty %v", res.Disputes, res.Faulty)
	}
}

func TestAuditMissingClaims(t *testing.T) {
	ac, claims, input := buildAuditFixture(t)
	claims[3] = nil
	res := ac.Audit(claims)
	if len(res.Faulty) != 1 || res.Faulty[0] != 3 {
		t.Errorf("silent claimant: faulty = %v", res.Faulty)
	}
	if !bytes.Equal(res.Output, input) {
		t.Error("output corrupted by missing claim")
	}
}

func TestAuditSendRecvMismatchIsDispute(t *testing.T) {
	ac, claims, _ := buildAuditFixture(t)
	// Node 2 claims it received a different block on some tree in-edge:
	// that contradicts its parent's send claim -> dispute (2, parent) —
	// and having actually built its value from the true block, node 2's
	// own phase-2 claims become inconsistent with the altered receipt, so
	// node 2 is also identified as faulty. Both are safe outcomes.
	rc := &claims[2].RecvBlocks[0]
	rc.Block.Bytes[0] ^= 0x80
	parent := rc.From
	res := ac.Audit(claims)
	foundDispute := false
	for _, d := range res.Disputes {
		if (d[0] == 2 && d[1] == parent) || (d[0] == parent && d[1] == 2) {
			foundDispute = true
		} else {
			t.Errorf("unrelated dispute %v", d)
		}
	}
	foundFaulty := false
	for _, fv := range res.Faulty {
		if fv == 2 {
			foundFaulty = true
		} else {
			t.Errorf("innocent node %d declared faulty", fv)
		}
	}
	if !foundDispute && !foundFaulty {
		t.Errorf("lie produced no progress: %+v", res)
	}
}

func TestAuditSelfInconsistentSenderIsFaulty(t *testing.T) {
	ac, claims, _ := buildAuditFixture(t)
	// Node 3 claims it SENT a block different from what it claims it
	// received on the same tree: self-inconsistent (DC3).
	var victim *TreeEdgeClaim
	for i := range claims[3].SentBlocks {
		victim = &claims[3].SentBlocks[i]
		break
	}
	if victim == nil {
		t.Skip("node 3 has no tree children in this packing")
	}
	victim.Block.Bytes[0] ^= 0x80
	res := ac.Audit(claims)
	found := false
	for _, fv := range res.Faulty {
		if fv == 3 {
			found = true
		} else {
			t.Errorf("innocent node %d declared faulty", fv)
		}
	}
	if !found {
		t.Errorf("self-inconsistent sender not identified: %+v", res)
	}
}

func TestAuditFlagLiarIsFaulty(t *testing.T) {
	ac, claims, _ := buildAuditFixture(t)
	// Node 4 announced MISMATCH (the authoritative agreed flag) while its
	// claims recompute to NULL.
	claims[4].Flag = true
	res := ac.Audit(claims)
	if len(res.Faulty) != 1 || res.Faulty[0] != 4 {
		t.Errorf("flag liar: faulty = %v, disputes = %v", res.Faulty, res.Disputes)
	}
}

func TestAuditSourceInputMismatchIsFaulty(t *testing.T) {
	ac, claims, _ := buildAuditFixture(t)
	// The source's broadcast input contradicts the blocks it claims to
	// have sent down the trees.
	claims[1].SourceInput = []byte{9, 9, 9, 9}
	res := ac.Audit(claims)
	found := false
	for _, fv := range res.Faulty {
		if fv == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("lying source not identified: %+v", res)
	}
	// Agreement still lands on the (lying) source's broadcast value: all
	// honest nodes share it, which is all a faulty source is owed.
	if !bytes.Equal(res.Output, []byte{9, 9, 9, 9}) {
		t.Errorf("output = %x", res.Output)
	}
}

func TestAuditWrongSizeSourceInput(t *testing.T) {
	ac, claims, _ := buildAuditFixture(t)
	claims[1].SourceInput = []byte{1, 2} // wrong length
	res := ac.Audit(claims)
	if !bytes.Equal(res.Output, make([]byte, 4)) {
		t.Errorf("output should default: %x", res.Output)
	}
	found := false
	for _, fv := range res.Faulty {
		if fv == 1 {
			found = true
		}
	}
	if !found {
		t.Error("malformed source input not flagged")
	}
}

func TestAuditCodedClaimMismatchIsDispute(t *testing.T) {
	ac, claims, _ := buildAuditFixture(t)
	// Node 2 lies about the coded symbols it received from node 3.
	for i := range claims[2].RecvCoded {
		if claims[2].RecvCoded[i].From == 3 {
			claims[2].RecvCoded[i].Symbols = append([]gf.Elem(nil), claims[2].RecvCoded[i].Symbols...)
			claims[2].RecvCoded[i].Symbols[0] ^= 1
			break
		}
	}
	res := ac.Audit(claims)
	// Expected: dispute (2,3) from the cross-check, plus node 2 possibly
	// self-inconsistent (its flag no longer matches the altered receipt).
	okDispute := false
	for _, d := range res.Disputes {
		if d == [2]graph.NodeID{2, 3} {
			okDispute = true
		} else {
			t.Errorf("unrelated dispute %v", d)
		}
	}
	for _, fv := range res.Faulty {
		if fv != 2 {
			t.Errorf("innocent node %d declared faulty", fv)
		}
	}
	if !okDispute && len(res.Faulty) == 0 {
		t.Errorf("coded lie made no progress: %+v", res)
	}
}

func TestUnmarshalClaims(t *testing.T) {
	c := &Claims{Node: 5, Flag: true}
	back := DecodeClaims(c.Marshal())
	if back == nil || back.Node != 5 || !back.Flag {
		t.Errorf("round trip: %+v", back)
	}
	if DecodeClaims(nil) != nil {
		t.Error("nil input should yield nil")
	}

	_, claims, _ := buildAuditFixture(t)
	raw := claims[1].Marshal() // the source: every field populated
	if !reflect.DeepEqual(DecodeClaims(raw), claims[1]) {
		t.Fatalf("round trip of the source's claims: %+v", DecodeClaims(raw))
	}
	flagAt := len(raw) - 1 - len(claims[1].SourceInput) - 1 // flag, uvarint(4), input
	for name, bad := range map[string][]byte{
		"truncated":     raw[:len(raw)-1],
		"trailing byte": append(append([]byte(nil), raw...), 0),
		"bad version":   append([]byte{claimsVersion + 1}, raw[1:]...),
		"flag byte 2":   append(append(append([]byte(nil), raw[:flagAt]...), 2), raw[flagAt+1:]...),
		"overlong node": {claimsVersion, 0x82, 0x00, 0, 0, 0, 0, 0, 0},
		"hostile count": {claimsVersion, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0},
		"version only":  {claimsVersion},
		"not a version": []byte("not json"),
		"symbols cut":   {claimsVersion, 0x02, 0, 0, 1, 0x02, 0x04, 1, 0xaa, 0, 0, 0},
	} {
		if c := DecodeClaims(bad); c != nil {
			t.Errorf("%s: decoded to %+v, want nil", name, c)
		}
	}
	// The minimal transcript decodes; dropping its last byte does not.
	minimal := []byte{claimsVersion, 0x02, 0, 0, 0, 0, 0, 0}
	if c := DecodeClaims(minimal); c == nil || c.Node != 1 {
		t.Errorf("minimal transcript: %+v", c)
	}
	if c := DecodeClaims(minimal[:len(minimal)-1]); c != nil {
		t.Errorf("minimal transcript without its input length: %+v", c)
	}
}

// k7Transcript returns the encoded claims of one K7 node (f = 2, L = 1 KiB)
// from a real Phase-3 run, triggered by a false alarm at node 5.
func k7Transcript(t testing.TB) []byte {
	t.Helper()
	input := make([]byte, 1024)
	for i := range input {
		input[i] = byte(i * 7)
	}
	runs, err := Phase3Runs(Config{
		Graph: topo.CompleteBi(7, 1), Source: 1, F: 2, LenBytes: len(input), Seed: 42,
		Adversaries: map[graph.NodeID]Adversary{5: falseAlarm{}},
	}, [][]byte{input})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d Phase-3 instances, want 1", len(runs))
	}
	return runs[0].Raw[1]
}

type falseAlarm struct{ Honest }

func (falseAlarm) OverrideFlag(bool) bool { return true }

// TestClaimsAppendZeroAlloc pins the transcript encoder: appending a K7
// source transcript into a buffer of the right size allocates nothing.
func TestClaimsAppendZeroAlloc(t *testing.T) {
	raw := k7Transcript(t)
	c := DecodeClaims(raw)
	if c == nil || len(c.SourceInput) != 1024 || len(c.SentCoded) == 0 {
		t.Fatalf("K7 source transcript did not decode: %+v", c)
	}
	buf := make([]byte, 0, len(raw))
	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendClaims(buf[:0], c)
	}); avg != 0 {
		t.Errorf("AppendClaims allocates %.1f times per op, want 0", avg)
	}
	if !bytes.Equal(buf, raw) {
		t.Error("AppendClaims did not reproduce the broadcast transcript")
	}
}

// FuzzClaimsDecode feeds arbitrary bytes to the transcript decoder, which
// every Byzantine general reaches: it must not panic, everything it
// accepts must re-encode to the identical bytes and audit without
// panicking, and no strict prefix of an accepted transcript may decode.
func FuzzClaimsDecode(f *testing.F) {
	ac, claims, _ := buildAuditFixture(f)
	for _, v := range []graph.NodeID{1, 2} {
		f.Add(claims[v].Marshal())
	}
	f.Add((&Claims{Node: -3, Flag: true, SourceInput: []byte{1}}).Marshal())
	f.Add([]byte{claimsVersion, 0x02, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := DecodeClaims(raw)
		if c == nil {
			return
		}
		if again := c.Marshal(); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %x re-encodes to %x", raw, again)
		}
		for n := range raw {
			if DecodeClaims(raw[:n]) != nil {
				t.Fatalf("strict prefix of %d of %d bytes decoded", n, len(raw))
			}
		}
		// Byzantine claims reach the audit: as the source's and as a
		// relay's transcript, they may convict or not but never panic.
		for _, v := range []graph.NodeID{1, 2} {
			hostile := maps.Clone(claims)
			hostile[v] = c
			ac.Audit(hostile)
		}
	})
}
