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
// per label. Every node shares that layout, so a round's report batch
// carries values only: the sender and the round imply which label each
// value reports. Building a batch, filing a received one and the final
// majority recursion are walks over those indices; nothing on the
// per-round path formats, parses or hashes a label.
package bb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"math/bits"
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
// ranks 0..n-1, in ascending id order; a label is a sequence of 1..t+1
// distinct ranks. Labels are numbered level by level (all length-1 labels,
// then length-2, ...), and within a level in lexicographic rank order, so
// a label's children are consecutive on the next level.
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

// batch yields, in wire order, the labels the participant of rank q
// reports in EIG round k (k <= t), each with the label a receiver files
// it under: in round 0 q's own label, filed as itself; in round k >= 1
// every length-k label without q, filed under the label extended by q.
func (lay *layout) batch(k int, q int32) iter.Seq2[int32, int32] {
	return func(yield func(label, filed int32) bool) {
		if k == 0 {
			yield(q, q)
			return
		}
		for i := lay.level[k-1]; i < lay.level[k]; i++ {
			if c := lay.child[int(i)*lay.n+int(q)]; c >= 0 && !yield(i, c) {
				return
			}
		}
	}
}

// batchLen is the number of values in every round-k batch: one in round
// 0, else the length-k labels without the sender, n-k of every n.
func (lay *layout) batchLen(k int) int {
	if k == 0 {
		return 1
	}
	return int(lay.level[k]-lay.level[k-1]) / lay.n * (lay.n - k)
}

// Node is the per-node state of one simultaneous-EIG execution. It
// implements sim.Process. After the final round, Decide returns the agreed
// value for any general.
type Node struct {
	self         graph.NodeID
	participants []graph.NodeID // ascending: a participant's index is its layout rank
	selfRank     int32
	t            int // residual fault tolerance; t+1 EIG rounds
	router       *relay.Router
	relayRounds  int
	myValue      []byte

	lay       *layout
	slots     [][]byte // one reported value per label of lay; nil and empty alike mean none
	harvested []bool   // EIG rounds already harvested
	votes     [][]byte // scratch: n child values per interior level
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
	selfRank, ok := slices.BinarySearch(sorted, self)
	if !ok {
		return nil, fmt.Errorf("bb: node %d not among participants", self)
	}
	for _, id := range sorted {
		if router.Table().Index(id) < 0 {
			return nil, fmt.Errorf("bb: participant %d not in the relay table", id)
		}
	}
	lay, err := layoutFor(n, t)
	if err != nil {
		return nil, err
	}
	return &Node{
		self:         self,
		participants: sorted,
		selfRank:     int32(selfRank),
		t:            t,
		router:       router,
		relayRounds:  router.Table().Rounds(),
		myValue:      myValue,
		lay:          lay,
		slots:        make([][]byte, len(lay.parent)),
		harvested:    make([]bool, t+1),
		votes:        make([][]byte, t*n),
	}, nil
}

// Rounds returns the number of simulator rounds one full execution needs.
func (nd *Node) Rounds() int { return (nd.t+1)*nd.relayRounds + 1 }

// msgID labels the relay traffic of EIG round k.
func msgID(k int) string { return "eig:" + strconv.Itoa(k) }

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

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// sendRound appends EIG round k's report batch, addressed to every other
// participant, to out. The batch is uvarint k, then per label of
// lay.batch(k, selfRank) uvarint value length and value, an unfilled
// label sent as empty — compact because the flag broadcast's cost is the
// paper's O(n^alpha) additive overhead, so every byte of framing is
// throughput lost at finite L. Each round gets a fresh batch: receivers
// file values that alias it (storeRound; on in-process engines these are
// the sender's very bytes), so reusing it would rewrite their trees.
func (nd *Node) sendRound(out []sim.Message, k int) []sim.Message {
	if k == 0 {
		nd.slots[nd.selfRank] = nd.myValue
	}
	size := uvarintLen(uint64(k))
	for i := range nd.lay.batch(k, nd.selfRank) {
		size += uvarintLen(uint64(len(nd.slots[i]))) + len(nd.slots[i])
	}
	payload := binary.AppendUvarint(make([]byte, 0, size), uint64(k))
	for i := range nd.lay.batch(k, nd.selfRank) {
		payload = binary.AppendUvarint(payload, uint64(len(nd.slots[i])))
		payload = append(payload, nd.slots[i]...)
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

// decodeRound checks that raw is a round-k batch of exactly count values
// — every length inside raw, every uvarint complete, nothing after the
// last value — and returns the position of the first value. A Byzantine
// sender can emit anything; a batch that fails here is dropped whole.
//
//nab:allocfree
func decodeRound(raw []byte, k, count int) (body int, ok bool) {
	got, body := binary.Uvarint(raw)
	if body <= 0 || got != uint64(k) {
		return 0, false
	}
	pos := body
	for ; count > 0; count-- {
		if _, pos, ok = readValue(raw, pos); !ok {
			return 0, false
		}
	}
	return body, pos == len(raw)
}

// readValue decodes the length-prefixed value at raw[pos:]: the value (a
// sub-slice of raw) and the position after it.
//
//nab:allocfree
func readValue(raw []byte, pos int) (val []byte, next int, ok bool) {
	if pos >= len(raw) {
		return nil, pos, false
	}
	vlen, n := binary.Uvarint(raw[pos:])
	if n <= 0 || vlen > uint64(len(raw)-pos-n) {
		return nil, pos, false
	}
	pos += n
	return raw[pos : pos+int(vlen)], pos + int(vlen), true
}

// harvest consumes the relay majorities of EIG round k and updates the
// tree. Missing or malformed batches file nothing; resolve treats an
// unfilled label as the default value.
func (nd *Node) harvest(k int) {
	if nd.harvested[k] {
		return
	}
	nd.harvested[k] = true
	id := msgID(k)
	for q, p := range nd.participants {
		if p == nd.self {
			continue
		}
		if raw, ok := nd.router.Majority(p, id); ok {
			nd.storeRound(raw, k, int32(q))
		}
	}
	if k == nd.t {
		return // the leaves have no children to self-report into
	}
	// Self-report: val(alpha . self) = val(alpha) for labels of length k+1
	// not containing self (a node trusts what it already knows).
	for i, c := range nd.lay.batch(k+1, nd.selfRank) {
		nd.slots[c] = nd.slots[i]
	}
}

// storeRound files a round-k batch from the participant of rank q, or
// nothing if decodeRound rejects it. Values alias raw.
//
//nab:allocfree
func (nd *Node) storeRound(raw []byte, k int, q int32) {
	pos, ok := decodeRound(raw, k, nd.lay.batchLen(k))
	if !ok {
		return
	}
	for _, c := range nd.lay.batch(k, q) {
		nd.slots[c], pos, _ = readValue(raw, pos)
	}
}

// Decide returns the agreed value for the given general, after all rounds
// completed (call Finish first if the driver added slack rounds). The nil
// default is returned when the general never delivered anything decodable.
// The result may alias a received report: callers must not modify it.
func (nd *Node) Decide(general graph.NodeID) []byte {
	r, ok := slices.BinarySearch(nd.participants, general)
	if !ok {
		return nil
	}
	return nd.resolve(int32(r), 0)
}

// resolve implements the recursive EIG decision rule for label i at depth
// (label length - 1): leaves return their stored value; interior labels
// return the strict majority of their children's resolved values,
// defaulting to nil.
//
//nab:allocfree
func (nd *Node) resolve(i int32, depth int) []byte {
	if depth == nd.t {
		return nd.slots[i]
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
