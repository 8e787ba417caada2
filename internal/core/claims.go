package core

import (
	"encoding/binary"
	"sort"

	"nab/internal/coding"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/spantree"
)

// TreeEdgeClaim is a node's statement about one Phase-1 tree-edge transfer.
type TreeEdgeClaim struct {
	Tree  int
	From  graph.NodeID
	To    graph.NodeID
	Block BitChunk
}

// CodedClaim is a node's statement about one equality-check transfer.
type CodedClaim struct {
	From    graph.NodeID
	To      graph.NodeID
	Symbols []gf.Elem
}

// Claims is the full transcript a node broadcasts during dispute control
// (step DC1): everything it claims to have sent and received in Phases 1
// and 2 of the instance, its announced flag, and — for the source — its
// input.
type Claims struct {
	Node        graph.NodeID
	SentBlocks  []TreeEdgeClaim
	RecvBlocks  []TreeEdgeClaim
	SentCoded   []CodedClaim
	RecvCoded   []CodedClaim
	Flag        bool
	SourceInput []byte
}

// claimsVersion is the first byte of every encoded transcript.
const claimsVersion = 1

// Minimum encoded sizes of one list element, the bound a decoded count is
// checked against: five one-byte varints for a tree-edge claim (tree,
// from, to, bit length, byte count), three for a coded claim (from, to,
// symbol count).
const (
	minTreeEdgeClaim = 5
	minCodedClaim    = 3
)

// Marshal encodes claims for the EIG broadcast.
func (c *Claims) Marshal() []byte { return AppendClaims(nil, c) }

// AppendClaims appends the binary encoding of c to buf: the version byte,
// the node id, the four claim lists, the flag byte and the source input.
// Ids, tree indices and bit lengths are varints, counts uvarints, blocks
// and the input length-prefixed bytes, and each gf.Elem a little-endian
// 64-bit word.
//
//nab:allocfree
func AppendClaims(buf []byte, c *Claims) []byte {
	buf = append(buf, claimsVersion)
	buf = binary.AppendVarint(buf, int64(c.Node))
	buf = appendTreeEdgeClaims(buf, c.SentBlocks)
	buf = appendTreeEdgeClaims(buf, c.RecvBlocks)
	buf = appendCodedClaims(buf, c.SentCoded)
	buf = appendCodedClaims(buf, c.RecvCoded)
	flag := byte(0)
	if c.Flag {
		flag = 1
	}
	buf = append(buf, flag)
	buf = binary.AppendUvarint(buf, uint64(len(c.SourceInput)))
	return append(buf, c.SourceInput...)
}

//nab:allocfree
func appendTreeEdgeClaims(buf []byte, cs []TreeEdgeClaim) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cs)))
	for _, tc := range cs {
		buf = binary.AppendVarint(buf, int64(tc.Tree))
		buf = binary.AppendVarint(buf, int64(tc.From))
		buf = binary.AppendVarint(buf, int64(tc.To))
		buf = binary.AppendVarint(buf, int64(tc.Block.BitLen))
		buf = binary.AppendUvarint(buf, uint64(len(tc.Block.Bytes)))
		buf = append(buf, tc.Block.Bytes...)
	}
	return buf
}

//nab:allocfree
func appendCodedClaims(buf []byte, cs []CodedClaim) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cs)))
	for _, cc := range cs {
		buf = binary.AppendVarint(buf, int64(cc.From))
		buf = binary.AppendVarint(buf, int64(cc.To))
		buf = binary.AppendUvarint(buf, uint64(len(cc.Symbols)))
		for _, s := range cc.Symbols {
			buf = binary.LittleEndian.AppendUint64(buf, s)
		}
	}
	return buf
}

// DecodeClaims decodes a broadcast transcript. It is strict: nil input, a
// wrong version, a flag byte other than 0 or 1, a non-minimal varint, a
// truncation or trailing bytes all yield nil (the auditor treats that node
// as faulty), so every transcript it accepts re-encodes to its input.
// Counts are checked against the bytes left before anything is allocated.
// Empty blocks, symbol lists and inputs decode as nil.
func DecodeClaims(raw []byte) *Claims {
	if len(raw) == 0 || raw[0] != claimsVersion {
		return nil
	}
	d := decoder{b: raw[1:], ok: true}
	c := &Claims{Node: graph.NodeID(d.varint())}
	c.SentBlocks = d.treeEdgeClaims()
	c.RecvBlocks = d.treeEdgeClaims()
	c.SentCoded = d.codedClaims()
	c.RecvCoded = d.codedClaims()
	c.Flag = d.flag()
	c.SourceInput = d.bytes()
	if !d.ok || len(d.b) != 0 {
		return nil
	}
	return c
}

// decoder is a bounds-checked cursor over an encoded transcript. The
// first malformed field clears ok; every later read returns a zero value.
// The type name puts its methods in nabvet wirebounds' scope.
type decoder struct {
	b  []byte
	ok bool
}

// varint reads a minimally encoded varint.
func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if !d.ok || n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a minimally encoded uvarint list length and rejects one
// that cannot fit in the bytes left at minBytes per element, so a hostile
// count cannot allocate more than O(len(raw)).
func (d *decoder) count(minBytes int) int {
	v, n := binary.Uvarint(d.b)
	if !d.ok || n <= 0 || (n > 1 && d.b[n-1] == 0) || v > uint64((len(d.b)-n)/minBytes) {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) flag() bool {
	if !d.ok || len(d.b) < 1 || d.b[0] > 1 {
		d.ok = false
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// bytes reads a length-prefixed byte string into a fresh slice.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 || len(d.b) < n {
		return nil
	}
	out := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return out
}

func (d *decoder) elems() []gf.Elem {
	n := d.count(8)
	if n == 0 || len(d.b) < 8*n {
		return nil
	}
	out := make([]gf.Elem, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.b[8*i:])
	}
	d.b = d.b[8*n:]
	return out
}

func (d *decoder) treeEdgeClaims() []TreeEdgeClaim {
	n := d.count(minTreeEdgeClaim)
	if n == 0 {
		return nil
	}
	out := make([]TreeEdgeClaim, n)
	for i := range out {
		tc := &out[i]
		tc.Tree = int(d.varint())
		tc.From = graph.NodeID(d.varint())
		tc.To = graph.NodeID(d.varint())
		tc.Block.BitLen = int(d.varint())
		tc.Block.Bytes = d.bytes()
	}
	return out
}

func (d *decoder) codedClaims() []CodedClaim {
	n := d.count(minCodedClaim)
	if n == 0 {
		return nil
	}
	out := make([]CodedClaim, n)
	for i := range out {
		cc := &out[i]
		cc.From = graph.NodeID(d.varint())
		cc.To = graph.NodeID(d.varint())
		cc.Symbols = d.elems()
	}
	return out
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
	adj     map[graph.NodeID]*nodeAdj // gk's adjacency, as the plan holds it
	source  graph.NodeID
	trees   []*spantree.Arborescence
	scheme  *coding.Scheme
	lenBits int
	rho     int
	symBits uint
	stripes int
}

// auditContext returns the audit parameters of instances run on pl.
func (pl *InstancePlan) auditContext() *auditContext {
	return &auditContext{
		gk: pl.gk, adj: pl.adj, source: pl.p.cfg.Source, trees: pl.trees, scheme: pl.scheme,
		lenBits: pl.p.lenBits, rho: pl.rho, symBits: pl.symBits, stripes: pl.stripes,
	}
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
	for _, v := range nodes {
		for _, e := range ac.adj[v].out {
			if claims[e.From] == nil || claims[e.To] == nil {
				continue
			}
			s := sentC[[2]graph.NodeID{e.From, e.To}]
			r := recvC[[2]graph.NodeID{e.From, e.To}]
			if !symbolsEqual(s, r) {
				addDispute(e.From, e.To)
			}
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
	for _, e := range ac.adj[v].out {
		// v's coded sends must be exactly its encoding: the check a
		// receiver holding v's value would run on them.
		mm, err := ac.scheme.CheckStripes(v, e.To, x, sentC[[2]graph.NodeID{v, e.To}])
		if err != nil || mm {
			return false
		}
	}
	flag := false
	for _, e := range ac.adj[v].in {
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
