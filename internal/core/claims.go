package core

import (
	"encoding/json"
	"sort"

	"nab/internal/coding"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/spantree"
)

// TreeEdgeClaim is a node's statement about one Phase-1 tree-edge transfer.
type TreeEdgeClaim struct {
	Tree  int          `json:"t"`
	From  graph.NodeID `json:"f"`
	To    graph.NodeID `json:"o"`
	Block BitChunk     `json:"b"`
}

// CodedClaim is a node's statement about one equality-check transfer.
type CodedClaim struct {
	From    graph.NodeID `json:"f"`
	To      graph.NodeID `json:"o"`
	Symbols []gf.Elem    `json:"s"`
}

// Claims is the full transcript a node broadcasts during dispute control
// (step DC1): everything it claims to have sent and received in Phases 1
// and 2 of the instance, its announced flag, and — for the source — its
// input.
type Claims struct {
	Node        graph.NodeID    `json:"n"`
	SentBlocks  []TreeEdgeClaim `json:"sb"`
	RecvBlocks  []TreeEdgeClaim `json:"rb"`
	SentCoded   []CodedClaim    `json:"sc"`
	RecvCoded   []CodedClaim    `json:"rc"`
	Flag        bool            `json:"fl"`
	SourceInput []byte          `json:"si,omitempty"`
}

// Marshal encodes claims for the EIG broadcast.
func (c *Claims) Marshal() []byte {
	raw, err := json.Marshal(c)
	if err != nil {
		// All fields are JSON-safe; a failure is a programming error.
		panic("core: marshal claims: " + err.Error())
	}
	return raw
}

// UnmarshalClaims decodes a broadcast transcript; nil or undecodable input
// yields nil (the auditor treats that node as faulty).
func UnmarshalClaims(raw []byte) *Claims {
	if len(raw) == 0 {
		return nil
	}
	var c Claims
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil
	}
	return &c
}

// AuditResult is the deterministic outcome of dispute control, identical at
// every fault-free node because it is computed from BB-agreed claims.
type AuditResult struct {
	// Output is the instance's agreed output: the source's broadcast input
	// (or the default zero value if the source's claim was missing).
	Output []byte
	// Disputes are the newly discovered disputing pairs.
	Disputes [][2]graph.NodeID
	// Faulty are nodes whose own claims are self-inconsistent (DC3).
	Faulty []graph.NodeID
}

// auditContext carries the instance parameters the audit re-derives
// behaviour from.
type auditContext struct {
	gk      *graph.Directed
	source  graph.NodeID
	trees   []*spantree.Arborescence
	scheme  *coding.Scheme
	lenBits int
	rho     int
	symBits uint
	stripes int
}

// Audit performs steps DC2 and DC3 of dispute control: cross-check all
// claims to find disputing pairs, and re-execute each node's deterministic
// duties from its claimed inputs to find provably faulty nodes. claims maps
// every node of gk to its agreed transcript (nil for nodes whose broadcast
// was undecodable — they are immediately faulty).
//
// The guarantees proved in the paper hold here: two fault-free nodes are
// never put in dispute (their claims are true and consistent), and a
// fault-free node is never declared faulty (its claims re-execute cleanly).
func (ac *auditContext) Audit(claims map[graph.NodeID]*Claims) *AuditResult {
	res := &AuditResult{}
	faulty := map[graph.NodeID]bool{}
	nodes := ac.gk.Nodes()

	for _, v := range nodes {
		if claims[v] == nil {
			faulty[v] = true
		}
	}

	// Source input defines the instance output (validity: an honest source
	// broadcast its true input; agreement: everyone sees the same claim).
	defaultOut := make([]byte, (ac.lenBits+7)/8)
	res.Output = defaultOut
	if sc := claims[ac.source]; sc != nil {
		if len(sc.SourceInput) == len(defaultOut) {
			res.Output = sc.SourceInput
		} else {
			faulty[ac.source] = true
		}
	}

	// Index claims for cross-checking.
	sentB := map[blockKey]BitChunk{}
	recvB := map[blockKey]BitChunk{}
	sentC := map[[2]graph.NodeID][]gf.Elem{}
	recvC := map[[2]graph.NodeID][]gf.Elem{}
	for _, v := range nodes {
		c := claims[v]
		if c == nil {
			continue
		}
		for _, tc := range c.SentBlocks {
			if tc.From == v {
				sentB[blockKey{tc.Tree, tc.From, tc.To}] = tc.Block
			}
		}
		for _, tc := range c.RecvBlocks {
			if tc.To == v {
				recvB[blockKey{tc.Tree, tc.From, tc.To}] = tc.Block
			}
		}
		for _, cc := range c.SentCoded {
			if cc.From == v {
				sentC[[2]graph.NodeID{cc.From, cc.To}] = cc.Symbols
			}
		}
		for _, cc := range c.RecvCoded {
			if cc.To == v {
				recvC[[2]graph.NodeID{cc.From, cc.To}] = cc.Symbols
			}
		}
	}

	// DC2: disputes wherever a sender's claim and receiver's claim differ.
	disputes := map[[2]graph.NodeID]bool{}
	addDispute := func(a, b graph.NodeID) {
		if a == b {
			return
		}
		key := [2]graph.NodeID{a, b}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		disputes[key] = true
	}
	expectedBlocks := ac.expectedBlockBits()
	for ti, tree := range ac.trees {
		for c, p := range tree.Parent {
			if claims[p] == nil || claims[c] == nil {
				continue // missing claimant already faulty
			}
			want := expectedBlocks[ti]
			s := normalizeChunk(sentB[blockKey{ti, p, c}], want)
			r := normalizeChunk(recvB[blockKey{ti, p, c}], want)
			if !chunkEqual(s, r) {
				addDispute(p, c)
			}
		}
	}
	for _, e := range ac.gk.Edges() {
		if claims[e.From] == nil || claims[e.To] == nil {
			continue
		}
		s := sentC[[2]graph.NodeID{e.From, e.To}]
		r := recvC[[2]graph.NodeID{e.From, e.To}]
		if !symbolsEqual(s, r) {
			addDispute(e.From, e.To)
		}
	}

	// DC3: re-execute each node's deterministic duties from its claims.
	for _, v := range nodes {
		c := claims[v]
		if c == nil || faulty[v] {
			continue
		}
		if !ac.selfConsistent(v, c, expectedBlocks, sentB, recvB, sentC, recvC) {
			faulty[v] = true
		}
	}

	for p := range disputes {
		res.Disputes = append(res.Disputes, p)
	}
	sort.Slice(res.Disputes, func(i, j int) bool {
		if res.Disputes[i][0] != res.Disputes[j][0] {
			return res.Disputes[i][0] < res.Disputes[j][0]
		}
		return res.Disputes[i][1] < res.Disputes[j][1]
	})
	for v := range faulty {
		res.Faulty = append(res.Faulty, v)
	}
	sort.Slice(res.Faulty, func(i, j int) bool { return res.Faulty[i] < res.Faulty[j] })
	return res
}

// expectedBlockBits returns the bit length of each tree's block.
func (ac *auditContext) expectedBlockBits() []int {
	gamma := len(ac.trees)
	out := make([]int, gamma)
	for i := range out {
		lo := i * ac.lenBits / gamma
		hi := (i + 1) * ac.lenBits / gamma
		out[i] = hi - lo
	}
	return out
}

// selfConsistent re-derives node v's sends from its claimed receipts.
func (ac *auditContext) selfConsistent(
	v graph.NodeID, c *Claims, expectedBlocks []int,
	sentB map[blockKey]BitChunk,
	recvB map[blockKey]BitChunk,
	sentC map[[2]graph.NodeID][]gf.Elem,
	recvC map[[2]graph.NodeID][]gf.Elem,
) bool {
	// Phase 1 duty: for each tree, what v received on its in-edge (or, for
	// the source, the corresponding split of its input) must equal what v
	// sent to each of its tree children.
	myBlocks := make([]BitChunk, len(ac.trees))
	if v == ac.source {
		split, err := splitBits(c.SourceInput, ac.lenBits, len(ac.trees))
		if err != nil {
			return false
		}
		copy(myBlocks, split)
	} else {
		for ti, tree := range ac.trees {
			parent, ok := tree.Parent[v]
			if !ok {
				return false // v not spanned: cannot happen for valid trees
			}
			myBlocks[ti] = normalizeChunk(recvB[blockKey{ti, parent, v}], expectedBlocks[ti])
		}
	}
	for ti, tree := range ac.trees {
		for child, parent := range tree.Parent {
			if parent != v {
				continue
			}
			sent := normalizeChunk(sentB[blockKey{ti, v, child}], expectedBlocks[ti])
			if !chunkEqual(sent, myBlocks[ti]) {
				return false
			}
		}
	}

	// Phase 2 duty: v's value is the join of its blocks; its coded sends
	// must match Encode, and its flag must match the checks against its
	// claimed receipts.
	data, err := joinBits(myBlocks, ac.lenBits)
	if err != nil {
		return false
	}
	x, err := coding.PackValue(data, ac.rho*ac.stripes, ac.symBits)
	if err != nil {
		return false
	}
	for _, e := range ac.gk.OutEdges(v) {
		// v's coded sends must be exactly its encoding: the check a
		// receiver holding v's value would run on them.
		mm, err := ac.scheme.CheckStripes(v, e.To, x, sentC[[2]graph.NodeID{v, e.To}])
		if err != nil || mm {
			return false
		}
	}
	flag := false
	for _, e := range ac.gk.InEdges(v) {
		mm, err := ac.scheme.CheckStripes(e.From, v, x, recvC[[2]graph.NodeID{e.From, v}])
		if err != nil {
			return false
		}
		if mm {
			flag = true
		}
	}
	return flag == c.Flag
}

// blockKey identifies one tree-edge transfer in the audit's claim indexes.
type blockKey struct {
	tree     int
	from, to graph.NodeID
}

func symbolsEqual(a, b []gf.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
