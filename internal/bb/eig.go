// Package bb implements classic (capacity-oblivious) Byzantine broadcast —
// the "Broadcast_Default" black box the paper plugs in for step 2.2 (1-bit
// flag agreement) and Phase 3 (dispute-control transcript agreement).
//
// The algorithm is Exponential Information Gathering (Pease–Shostak–
// Lamport): t+1 rounds among participants P with |P| >= 3t+1, where t is
// the residual fault tolerance. Every participant acts as the general of
// its own simultaneous instance, so one run agrees on a value per node.
//
// Point-to-point links between participants are emulated with the relay
// package (2f+1 node-disjoint paths + majority), exactly the construction
// of the paper's Appendix D.
//
// The EIG tree is index-addressed: an immutable layout per (|P|, t)
// numbers every label once (see layout), and a Node keeps one value slot
// per label. Building a round's reports, filing a received batch and the
// final majority recursion are walks over those indices; nothing on the
// per-round path formats, parses or hashes a label.
package bb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"nab/internal/graph"
	"nab/internal/relay"
	"nab/internal/sim"
)

// maxLabels bounds the label tree a Node will build. EIG is exponential in
// t by construction; this keeps an absurd (|P|, t) a constructor error
// rather than an allocation of n^(t+1) slots (and keeps indices in int32).
const maxLabels = 1 << 22

// layout is the shape of the EIG label tree for n participants and
// tolerance t, shared by every Node of that shape. Participants appear as
// ranks 0..n-1; a label is a sequence of 1..t+1 distinct ranks. Labels are
// numbered level by level (all length-1 labels, then length-2, ...), and
// within a level in lexicographic rank order, so a label's children are
// consecutive on the next level. A Node ranks its participants by the
// byte order of their decimal ids (see NewNode), which makes index order
// within a level the order of the comma-joined decimal label keys — the
// order round reports have always had on the wire.
type layout struct {
	n int // participants
	// level[l] is the index of the first label of length l+1; level[t+1]
	// is the total label count.
	level []int32
	// parent[i] is label i without its last rank (-1 on level 1), last[i]
	// that last rank.
	parent []int32
	last   []int32
	// child[i*n+q] is the index of label i extended by rank q, or -1 when
	// q already occurs in label i. Only labels shorter than t+1 have rows.
	child []int32
}

// layouts caches one layout per (n, t): the shape is a pure function of
// the pair, and every instance of a generation asks for the same one.
var layouts sync.Map // [2]int -> *layout

func layoutFor(n, t int) (*layout, error) {
	key := [2]int{n, t}
	if l, ok := layouts.Load(key); ok {
		return l.(*layout), nil
	}
	total, width := 0, 1
	for l := 0; l <= t; l++ {
		width *= n - l
		total += width
		if total > maxLabels {
			return nil, fmt.Errorf("bb: EIG tree for %d participants and t = %d exceeds %d labels", n, t, maxLabels)
		}
	}
	lay := &layout{
		n:      n,
		level:  make([]int32, t+2),
		parent: make([]int32, 0, total),
		last:   make([]int32, 0, total),
		child:  make([]int32, (total-width)*n),
	}
	for q := 0; q < n; q++ {
		lay.parent = append(lay.parent, -1)
		lay.last = append(lay.last, int32(q))
	}
	lay.level[1] = int32(n)
	for l := 1; l <= t; l++ {
		for i := lay.level[l-1]; i < lay.level[l]; i++ {
			for q := 0; q < n; q++ {
				if lay.contains(i, int32(q)) {
					lay.child[int(i)*n+q] = -1
					continue
				}
				lay.child[int(i)*n+q] = int32(len(lay.parent))
				lay.parent = append(lay.parent, i)
				lay.last = append(lay.last, int32(q))
			}
		}
		lay.level[l+1] = int32(len(lay.parent))
	}
	l, _ := layouts.LoadOrStore(key, lay)
	return l.(*layout), nil
}

// contains reports whether rank q occurs in label i.
func (lay *layout) contains(i, q int32) bool {
	for ; i >= 0; i = lay.parent[i] {
		if lay.last[i] == q {
			return true
		}
	}
	return false
}

// slot is one label's reported value; ok tells a stored empty value (which
// is re-reported) from a label nothing was filed under.
type slot struct {
	val []byte
	ok  bool
}

// Node is the per-node state of one simultaneous-EIG execution. It
// implements sim.Process. After the final round, Decide returns the agreed
// value for any general.
type Node struct {
	self         graph.NodeID
	participants []graph.NodeID // ascending
	rankAt       []int32        // rankAt[i] is the layout rank of the relay table's node i, -1 for a non-participant
	ids          []graph.NodeID // ids[r] is the participant with layout rank r
	selfRank     int32
	t            int // residual fault tolerance; t+1 EIG rounds
	router       *relay.Router
	relayRounds  int
	myValue      []byte

	lay       *layout
	slots     []slot         // one per label of lay
	harvested []bool         // EIG rounds already harvested
	path      []graph.NodeID // scratch: one report's label
	votes     [][]byte       // scratch: n child values per interior level
}

// NewNode builds the EIG state for node self broadcasting myValue, among
// participants (each of whom is also a general), with residual tolerance t.
// The router must be backed by a relay table with 2f+1 paths where f is the
// global fault bound (faulty nodes outside participants can still relay).
func NewNode(self graph.NodeID, participants []graph.NodeID, t int, router *relay.Router, myValue []byte) (*Node, error) {
	if t < 0 {
		return nil, fmt.Errorf("bb: tolerance t = %d must be non-negative", t)
	}
	n := len(participants)
	if n < 3*t+1 {
		return nil, fmt.Errorf("bb: %d participants cannot tolerate t = %d faults (need >= %d)", n, t, 3*t+1)
	}
	sorted := slices.Clone(participants)
	slices.Sort(sorted)
	for i := 1; i < n; i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("bb: participant %d listed twice", sorted[i])
		}
	}
	if _, ok := slices.BinarySearch(sorted, self); !ok {
		return nil, fmt.Errorf("bb: node %d not among participants", self)
	}
	lay, err := layoutFor(n, t)
	if err != nil {
		return nil, err
	}
	// Rank participants by the byte order of their decimal ids ("10" sorts
	// before "2"): the order reports of one level take on the wire.
	ids := slices.Clone(sorted)
	slices.SortFunc(ids, compareDecimal)
	tab := router.Table()
	rankAt := make([]int32, tab.NumNodes())
	for i := range rankAt {
		rankAt[i] = -1
	}
	for r, id := range ids {
		i := tab.Index(id)
		if i < 0 {
			return nil, fmt.Errorf("bb: participant %d not in the relay table", id)
		}
		rankAt[i] = int32(r)
	}
	return &Node{
		self:         self,
		participants: sorted,
		rankAt:       rankAt,
		ids:          ids,
		selfRank:     rankAt[tab.Index(self)],
		t:            t,
		router:       router,
		relayRounds:  router.Table().Rounds(),
		myValue:      myValue,
		lay:          lay,
		slots:        make([]slot, len(lay.parent)),
		harvested:    make([]bool, t+1),
		path:         make([]graph.NodeID, t+1),
		votes:        make([][]byte, t*n),
	}, nil
}

// compareDecimal orders node ids as their decimal strings compare.
func compareDecimal(a, b graph.NodeID) int {
	var ab, bb [20]byte
	return bytes.Compare(strconv.AppendInt(ab[:0], int64(a), 10), strconv.AppendInt(bb[:0], int64(b), 10))
}

// Rounds returns the number of simulator rounds one full execution needs.
func (nd *Node) Rounds() int { return (nd.t+1)*nd.relayRounds + 1 }

// msgID labels the relay traffic of EIG round k.
func msgID(k int) string { return "eig:" + strconv.Itoa(k) }

// rankOf returns the layout rank of participant id, or -1 for a stranger:
// a non-participant, or an id the relay table does not know.
func (nd *Node) rankOf(id graph.NodeID) int32 {
	if i := nd.router.Table().Index(id); i >= 0 {
		return nd.rankAt[i]
	}
	return -1
}

// Step implements sim.Process: it forwards relay traffic every round and,
// on EIG round boundaries, harvests the previous round's majorities and
// emits the next round's reports.
func (nd *Node) Step(round int, inbox []sim.Message) []sim.Message {
	out := nd.router.HandleAll(inbox)
	if round%nd.relayRounds != 0 {
		return out
	}
	k := round / nd.relayRounds // EIG round about to start (0-based)
	if k > 0 && k <= nd.t+1 {
		nd.harvest(k - 1)
	}
	if k <= nd.t {
		out = nd.sendRound(out, k)
	}
	return out
}

// Finish harvests any remaining rounds; call after the simulator phase
// completes (Step at round (t+1)*relayRounds already harvests the last
// round, Finish is idempotent insurance for drivers running extra rounds).
func (nd *Node) Finish() {
	for k := 0; k <= nd.t; k++ {
		nd.harvest(k)
	}
}

// sendRound appends EIG round k's report batch, addressed to every other
// participant, to out. The batch is varint K, varint report count, then per
// report varint path length, varint node ids, varint value length, value —
// compact because the flag broadcast's cost is the paper's O(n^alpha)
// additive overhead, so every byte of framing is throughput lost at
// finite L. Round 0 announces the node's own value; round k >= 1 reports
// every stored label of length k that does not contain the node.
func (nd *Node) sendRound(out []sim.Message, k int) []sim.Message {
	lo, hi, length := nd.selfRank, nd.selfRank+1, 1
	if k == 0 {
		nd.slots[nd.selfRank] = slot{val: nd.myValue, ok: true}
	} else {
		lo, hi, length = nd.lay.level[k-1], nd.lay.level[k], k
	}
	count, size := 0, 0
	for i := lo; i < hi; i++ {
		if nd.reports(i, k) {
			count++
			size += nd.reportSize(i, length)
		}
	}
	payload := make([]byte, 0, 2*binary.MaxVarintLen64+size)
	payload = binary.AppendVarint(payload, int64(k))
	payload = binary.AppendVarint(payload, int64(count))
	for i := lo; i < hi; i++ {
		if nd.reports(i, k) {
			payload = nd.appendReport(payload, i, length)
		}
	}
	id := msgID(k)
	out = slices.Grow(out, (len(nd.participants)-1)*nd.router.Table().K())
	for _, q := range nd.participants {
		if q != nd.self {
			out = nd.router.AppendSend(out, q, id, payload)
		}
	}
	return out
}

// reports tells whether label i goes into this node's round-k batch.
func (nd *Node) reports(i int32, k int) bool {
	return nd.slots[i].ok && (k == 0 || !nd.lay.contains(i, nd.selfRank))
}

// reportSize is the encoded size of the report for label i of the given
// length.
func (nd *Node) reportSize(i int32, length int) int {
	val := nd.slots[i].val
	size := varintLen(int64(length)) + varintLen(int64(len(val))) + len(val)
	for ; i >= 0; i = nd.lay.parent[i] {
		size += varintLen(int64(nd.ids[nd.lay.last[i]]))
	}
	return size
}

// appendReport appends the report for label i of the given length — path
// length, path ids, value length, value — to buf.
//
//nab:allocfree
func (nd *Node) appendReport(buf []byte, i int32, length int) []byte {
	path := nd.path[:length]
	for j, d := i, length-1; j >= 0; j, d = nd.lay.parent[j], d-1 {
		path[d] = nd.ids[nd.lay.last[j]]
	}
	buf = binary.AppendVarint(buf, int64(length))
	for _, id := range path {
		buf = binary.AppendVarint(buf, int64(id))
	}
	val := nd.slots[i].val
	buf = binary.AppendVarint(buf, int64(len(val)))
	return append(buf, val...)
}

// varintLen is the number of bytes binary.AppendVarint writes for v.
func varintLen(v int64) int {
	u := uint64(v<<1) ^ uint64(v>>63) // zig-zag, as encoding/binary
	n := 1
	for ; u >= 0x80; u >>= 7 {
		n++
	}
	return n
}

// readVarint decodes the varint at raw[pos:]; ok is false when it is
// truncated or overflows 64 bits.
func readVarint(raw []byte, pos int) (v int64, next int, ok bool) {
	if pos >= len(raw) {
		return 0, pos, false
	}
	v, n := binary.Varint(raw[pos:])
	if n <= 0 {
		return 0, pos, false
	}
	return v, pos + n, true
}

// readRoundHeader decodes a batch's round number and report count. The
// count is bounded by the batch length (every report takes a byte or
// more), so a forged count cannot drive a long loop.
func readRoundHeader(raw []byte) (k, count int64, pos int, ok bool) {
	if k, pos, ok = readVarint(raw, 0); !ok {
		return 0, 0, 0, false
	}
	if count, pos, ok = readVarint(raw, pos); !ok || count < 0 || count > int64(len(raw)) {
		return 0, 0, 0, false
	}
	return k, count, pos, true
}

// readReport decodes the report at raw[pos:]: its path length, its value
// (a sub-slice of raw) and the position of the next report. The first
// len(path) ids of the path are written into path; the rest are checked and
// skipped, so a caller passes a buffer as long as the labels it can use.
func readReport(raw []byte, pos int, path []graph.NodeID) (plen int64, val []byte, next int, ok bool) {
	if plen, pos, ok = readVarint(raw, pos); !ok || plen < 0 || plen > int64(len(raw)) {
		return 0, nil, 0, false
	}
	for j := int64(0); j < plen; j++ {
		var id int64
		if id, pos, ok = readVarint(raw, pos); !ok {
			return 0, nil, 0, false
		}
		if j < int64(len(path)) {
			path[j] = graph.NodeID(id)
		}
	}
	var vlen int64
	if vlen, pos, ok = readVarint(raw, pos); !ok || vlen < 0 || int64(pos)+vlen > int64(len(raw)) {
		return 0, nil, 0, false
	}
	end := pos + int(vlen)
	return plen, raw[pos:end], end, true
}

// decodeRoundNumber checks that raw is a well-formed report batch — every
// length inside raw, every varint complete — and returns its round number.
// Bytes after the last report are ignored. A Byzantine sender can emit
// anything; a batch that fails here is dropped whole.
//
//nab:allocfree
func decodeRoundNumber(raw []byte) (k int64, ok bool) {
	k, count, pos, ok := readRoundHeader(raw)
	for ; ok && count > 0; count-- {
		_, _, pos, ok = readReport(raw, pos, nil)
	}
	return k, ok
}

// harvest consumes the relay majorities of EIG round k and updates the
// tree. Invalid or missing reports are simply not stored; resolve treats
// them as the default value.
func (nd *Node) harvest(k int) {
	if nd.harvested[k] {
		return
	}
	nd.harvested[k] = true
	id := msgID(k)
	for _, p := range nd.participants {
		if p == nd.self {
			continue
		}
		raw, ok := nd.router.Majority(p, id)
		if !ok {
			continue
		}
		if got, ok := decodeRoundNumber(raw); !ok || got != int64(k) {
			continue
		}
		nd.storeRound(raw, k, p)
	}
	if k == nd.t {
		return // the leaves have no children to self-report into
	}
	// Self-report: val(alpha . self) = val(alpha) for labels of length k+1
	// not containing self (a node trusts what it already knows).
	for i := nd.lay.level[k]; i < nd.lay.level[k+1]; i++ {
		if !nd.slots[i].ok {
			continue
		}
		if c := nd.lay.child[int(i)*nd.lay.n+int(nd.selfRank)]; c >= 0 {
			nd.store(c, nd.slots[i].val)
		}
	}
}

// storeRound files the reports of a round-k batch from participant from,
// already checked by decodeRoundNumber. Values alias raw.
//
//nab:allocfree
func (nd *Node) storeRound(raw []byte, k int, from graph.NodeID) {
	path := nd.path[:max(k, 1)]
	_, count, pos, _ := readRoundHeader(raw)
	for ; count > 0; count-- {
		var plen int64
		var val []byte
		plen, val, pos, _ = readReport(raw, pos, path)
		if plen != int64(len(path)) {
			continue
		}
		if i := nd.labelIndex(path, k, from); i >= 0 {
			nd.store(i, val)
		}
	}
}

// store files val under label i unless something already is: the first
// report per label wins.
//
//nab:allocfree
func (nd *Node) store(i int32, val []byte) {
	if !nd.slots[i].ok {
		nd.slots[i] = slot{val: val, ok: true}
	}
}

// labelIndex returns the slot a round-k report from participant from with
// the given label is stored under, or -1 if the label is not acceptable.
// Round-0 reports carry the general's own single-element label and are
// stored under it; round-k (k >= 1) reports carry labels of length k over
// distinct participants, not containing from, and are stored under the
// label extended by from.
//
//nab:allocfree
func (nd *Node) labelIndex(path []graph.NodeID, k int, from graph.NodeID) int32 {
	if k == 0 {
		if len(path) != 1 || path[0] != from {
			return -1
		}
		return nd.rankOf(from)
	}
	if len(path) != k {
		return -1
	}
	return nd.extend(nd.pathIndex(path), from)
}

// pathIndex returns the index of the label path spells, or -1 if it is
// not one: empty, longer than t+1, naming a stranger or repeating a node.
func (nd *Node) pathIndex(path []graph.NodeID) int32 {
	if len(path) == 0 {
		return -1
	}
	// Level-1 labels are numbered by rank.
	i := nd.rankOf(path[0])
	for _, id := range path[1:] {
		i = nd.extend(i, id)
	}
	return i
}

// extend returns the index of label i extended by participant id, or -1 if
// i is -1 or a leaf, id is a stranger or id already occurs in label i.
func (nd *Node) extend(i int32, id graph.NodeID) int32 {
	q := nd.rankOf(id)
	if i < 0 || q < 0 || i >= nd.lay.level[nd.t] {
		return -1
	}
	return nd.lay.child[int(i)*nd.lay.n+int(q)]
}

// Decide returns the agreed value for the given general, after all rounds
// completed (call Finish first if the driver added slack rounds). The nil
// default is returned when the general never delivered anything decodable.
// The result may alias a received report: callers must not modify it.
func (nd *Node) Decide(general graph.NodeID) []byte {
	r := nd.rankOf(general)
	if r < 0 {
		return nil
	}
	return nd.resolve(r, 0)
}

// resolve implements the recursive EIG decision rule for label i at depth
// (label length - 1): leaves return their stored value; interior labels
// return the strict majority of their children's resolved values,
// defaulting to nil.
//
//nab:allocfree
func (nd *Node) resolve(i int32, depth int) []byte {
	if depth == nd.t {
		return nd.slots[i].val
	}
	n := nd.lay.n
	votes := nd.votes[depth*n : depth*n : (depth+1)*n]
	for _, c := range nd.lay.child[int(i)*n : (int(i)+1)*n] {
		if c >= 0 {
			votes = append(votes, nd.resolve(c, depth+1))
		}
	}
	// Boyer-Moore vote, then an exact count of the surviving candidate.
	var cand []byte
	lead := 0
	for _, v := range votes {
		switch {
		case lead == 0:
			cand, lead = v, 1
		case bytes.Equal(cand, v):
			lead++
		default:
			lead--
		}
	}
	count := 0
	for _, v := range votes {
		if bytes.Equal(cand, v) {
			count++
		}
	}
	if count*2 <= len(votes) || len(cand) == 0 {
		return nil
	}
	return cand
}
