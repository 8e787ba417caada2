// The map-keyed EIG implementation this package shipped before the
// index-addressed tree, kept as the differential oracle (refNode), and the
// reference codec for the in-place round decoder. Its batches carry values
// only, like the tree's, but it lists each batch's labels by its own
// recursion over participant ids rather than from the shared layout.
package bb

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nab/internal/graph"
	"nab/internal/relay"
	"nab/internal/sim"
)

// refNode is the per-node state of one simultaneous-EIG execution. It
// implements sim.Process. After the final round, Decide returns the agreed
// value for any general.
type refNode struct {
	self         graph.NodeID
	participants []graph.NodeID
	inP          map[graph.NodeID]bool
	t            int // residual fault tolerance; t+1 EIG rounds
	router       *relay.Router
	relayRounds  int
	myValue      []byte

	vals      map[string][]byte // label key -> reported value
	harvested map[int]bool      // EIG rounds already harvested
}

// labelVal is one stored EIG tree label and its value.
type labelVal struct {
	Path []graph.NodeID
	Val  []byte
}

// roundMsg is the wire form of one EIG round's report batch: the round
// number and one value per label the sender reports, in the order
// refNode.reported lists them. It uses a compact uvarint framing (not
// JSON): the flag broadcast's cost is the paper's O(n^alpha) additive
// overhead, so every byte of framing is pure throughput loss at finite L.
type roundMsg struct {
	K    uint64
	Vals [][]byte
}

// marshalRound encodes a roundMsg: uvarint K, then per value uvarint
// length and value.
func marshalRound(m roundMsg) []byte {
	buf := binary.AppendUvarint(nil, m.K)
	for _, v := range m.Vals {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// unmarshalRound decodes marshalRound's format, reading values until the
// input ends; malformed input returns an error (Byzantine senders can
// emit garbage).
func unmarshalRound(raw []byte) (roundMsg, error) {
	var m roundMsg
	k, n := binary.Uvarint(raw)
	if n <= 0 {
		return m, fmt.Errorf("bb: truncated round number")
	}
	m.K = k
	for pos := n; pos < len(raw); {
		vlen, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return m, fmt.Errorf("bb: truncated value length at %d", pos)
		}
		pos += n
		if vlen > uint64(len(raw)-pos) {
			return m, fmt.Errorf("bb: implausible value length %d", vlen)
		}
		m.Vals = append(m.Vals, raw[pos:pos+int(vlen)])
		pos += int(vlen)
	}
	return m, nil
}

// newRefNode builds the EIG state for node self broadcasting myValue, among
// participants (each of whom is also a general), with residual tolerance t.
// The router must be backed by a relay table with 2f+1 paths where f is the
// global fault bound (faulty nodes outside participants can still relay).
func newRefNode(self graph.NodeID, participants []graph.NodeID, t int, router *relay.Router, myValue []byte) (*refNode, error) {
	if t < 0 {
		return nil, fmt.Errorf("bb: tolerance t = %d must be non-negative", t)
	}
	if len(participants) < 3*t+1 {
		return nil, fmt.Errorf("bb: %d participants cannot tolerate t = %d faults (need >= %d)", len(participants), t, 3*t+1)
	}
	inP := map[graph.NodeID]bool{}
	for _, p := range participants {
		inP[p] = true
	}
	if !inP[self] {
		return nil, fmt.Errorf("bb: node %d not among participants", self)
	}
	sorted := append([]graph.NodeID(nil), participants...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &refNode{
		self:         self,
		participants: sorted,
		inP:          inP,
		t:            t,
		router:       router,
		relayRounds:  router.Table().Rounds(),
		myValue:      myValue,
		vals:         map[string][]byte{},
		harvested:    map[int]bool{},
	}, nil
}

// Rounds returns the number of simulator rounds one full execution needs.
func (nd *refNode) Rounds() int { return (nd.t+1)*nd.relayRounds + 1 }

func labelKey(path []graph.NodeID) string {
	parts := make([]string, len(path))
	for i, v := range path {
		parts[i] = strconv.Itoa(int(v))
	}
	return strings.Join(parts, ",")
}

// Step implements sim.Process: it forwards relay traffic every round and,
// on EIG round boundaries, harvests the previous round's majorities and
// emits the next round's reports.
func (nd *refNode) Step(round int, inbox []sim.Message) []sim.Message {
	out := nd.router.HandleAll(inbox)
	if round%nd.relayRounds != 0 {
		return out
	}
	k := round / nd.relayRounds // EIG round about to start (0-based)
	if k > 0 {
		nd.harvest(k - 1)
	}
	if k <= nd.t {
		out = append(out, nd.sendRound(k)...)
	}
	return out
}

// Finish harvests any remaining rounds; call after the simulator phase
// completes (Step at round (t+1)*relayRounds already harvests the last
// round, Finish is idempotent insurance for drivers running extra rounds).
func (nd *refNode) Finish() {
	for k := 0; k <= nd.t; k++ {
		nd.harvest(k)
	}
}

// sendRound emits EIG round k's reports to every other participant: the
// node's own value in round 0, then one value per label reported, an
// unfilled label sent as empty.
func (nd *refNode) sendRound(k int) []sim.Message {
	if k == 0 {
		// Generals announce their own value.
		nd.vals[labelKey([]graph.NodeID{nd.self})] = nd.myValue
	}
	msg := roundMsg{K: uint64(k)}
	for _, label := range nd.reported(k, nd.self) {
		msg.Vals = append(msg.Vals, nd.vals[labelKey(label)])
	}
	payload := marshalRound(msg)
	var out []sim.Message
	for _, q := range nd.participants {
		if q == nd.self {
			continue
		}
		out = append(out, nd.router.Send(q, msgID(k), payload)...)
	}
	return out
}

// reported lists the labels participant from reports in round k, in wire
// order: its own label in round 0; in round k >= 1 every label of k
// distinct participants without from, in lexicographic order of ids.
func (nd *refNode) reported(k int, from graph.NodeID) [][]graph.NodeID {
	if k == 0 {
		return [][]graph.NodeID{{from}}
	}
	var out [][]graph.NodeID
	var grow func(label []graph.NodeID)
	grow = func(label []graph.NodeID) {
		if len(label) == k {
			out = append(out, append([]graph.NodeID(nil), label...))
			return
		}
		for _, q := range nd.participants {
			if q != from && !containsNode(label, q) {
				grow(append(label, q))
			}
		}
	}
	grow(nil)
	return out
}

// storedAtLevel returns stored reports whose label has length k, sorted.
func (nd *refNode) storedAtLevel(k int) []labelVal {
	keys := make([]string, 0, len(nd.vals))
	for key := range nd.vals {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []labelVal
	for _, key := range keys {
		path := parseKey(key)
		if len(path) == k {
			out = append(out, labelVal{Path: path, Val: nd.vals[key]})
		}
	}
	return out
}

func parseKey(key string) []graph.NodeID {
	parts := strings.Split(key, ",")
	out := make([]graph.NodeID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil
		}
		out = append(out, graph.NodeID(v))
	}
	return out
}

// harvest consumes the relay majorities of EIG round k and updates the
// tree. Invalid or missing reports are simply not stored; resolve treats
// them as the default value.
func (nd *refNode) harvest(k int) {
	if nd.harvested[k] {
		return
	}
	nd.harvested[k] = true
	for _, p := range nd.participants {
		if p == nd.self {
			continue
		}
		raw, ok := nd.router.Majority(p, msgID(k))
		if !ok {
			continue
		}
		msg, err := unmarshalRound(raw)
		if err != nil || msg.K != uint64(k) {
			continue
		}
		labels := nd.reported(k, p)
		if len(msg.Vals) != len(labels) {
			continue
		}
		for j, label := range labels {
			// Round 0 carries the general's own label [g]; later rounds
			// report labels the receiver extends by the sender.
			stored := label
			if k > 0 {
				stored = append(label, p)
			}
			key := labelKey(stored)
			if _, dup := nd.vals[key]; !dup {
				nd.vals[key] = msg.Vals[j]
			}
		}
	}
	// Self-report: val(alpha . self) = val(alpha) for labels of length k+1
	// ending at self (a node trusts what it already knows).
	for _, lv := range nd.storedAtLevel(k + 1) {
		if containsNode(lv.Path, nd.self) {
			continue
		}
		ext := append(append([]graph.NodeID(nil), lv.Path...), nd.self)
		key := labelKey(ext)
		if _, dup := nd.vals[key]; !dup {
			nd.vals[key] = lv.Val
		}
	}
}

func containsNode(path []graph.NodeID, v graph.NodeID) bool {
	for _, p := range path {
		if p == v {
			return true
		}
	}
	return false
}

// Decide returns the agreed value for the given general, after all rounds
// completed (call Finish first if the driver added slack rounds). The nil
// default is returned when the general never delivered anything decodable.
func (nd *refNode) Decide(general graph.NodeID) []byte {
	if !nd.inP[general] {
		return nil
	}
	return nd.resolve([]graph.NodeID{general})
}

// resolve implements the recursive EIG decision rule: leaves return their
// stored value; interior labels return the strict majority of their
// children's resolved values, defaulting to nil.
func (nd *refNode) resolve(label []graph.NodeID) []byte {
	if len(label) == nd.t+1 {
		return nd.vals[labelKey(label)]
	}
	counts := map[string]int{}
	children := 0
	for _, q := range nd.participants {
		if containsNode(label, q) {
			continue
		}
		children++
		child := nd.resolve(append(append([]graph.NodeID(nil), label...), q))
		counts[string(child)]++
	}
	if children == 0 {
		return nd.vals[labelKey(label)]
	}
	keys := make([]string, 0, len(counts))
	for s := range counts {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	for _, s := range keys {
		if counts[s]*2 > children {
			if s == "" {
				return nil
			}
			return []byte(s)
		}
	}
	return nil
}
