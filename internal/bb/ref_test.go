// The map-keyed EIG implementation this package shipped before the
// index-addressed tree, kept verbatim as the differential oracle (refNode)
// and as the reference codec for the in-place round decoder.
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

// labelVal is the wire form of one EIG tree report.
type labelVal struct {
	Path []graph.NodeID
	Val  []byte
}

// roundMsg is the wire form of one EIG round's report batch. It uses a
// compact varint framing (not JSON): the flag broadcast's cost is the
// paper's O(n^alpha) additive overhead, so every byte of framing is pure
// throughput loss at finite L.
type roundMsg struct {
	K       int
	Reports []labelVal
}

// marshalRound encodes a roundMsg: varint K, varint report count, then per
// report varint path length, varint node ids, varint value length, value.
func marshalRound(m roundMsg) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	putInt := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putInt(int64(m.K))
	putInt(int64(len(m.Reports)))
	for _, r := range m.Reports {
		putInt(int64(len(r.Path)))
		for _, id := range r.Path {
			putInt(int64(id))
		}
		putInt(int64(len(r.Val)))
		buf = append(buf, r.Val...)
	}
	return buf
}

// unmarshalRound decodes marshalRound's format; malformed input returns an
// error (Byzantine senders can emit garbage).
func unmarshalRound(raw []byte) (roundMsg, error) {
	var m roundMsg
	pos := 0
	getInt := func() (int64, error) {
		v, n := binary.Varint(raw[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("bb: truncated varint at %d", pos)
		}
		pos += n
		return v, nil
	}
	k, err := getInt()
	if err != nil {
		return m, err
	}
	m.K = int(k)
	count, err := getInt()
	if err != nil {
		return m, err
	}
	if count < 0 || count > int64(len(raw)) {
		return m, fmt.Errorf("bb: implausible report count %d", count)
	}
	m.Reports = make([]labelVal, 0, count)
	for i := int64(0); i < count; i++ {
		plen, err := getInt()
		if err != nil {
			return m, err
		}
		if plen < 0 || plen > int64(len(raw)) {
			return m, fmt.Errorf("bb: implausible path length %d", plen)
		}
		path := make([]graph.NodeID, plen)
		for j := range path {
			id, err := getInt()
			if err != nil {
				return m, err
			}
			path[j] = graph.NodeID(id)
		}
		vlen, err := getInt()
		if err != nil {
			return m, err
		}
		if vlen < 0 || int64(pos)+vlen > int64(len(raw)) {
			return m, fmt.Errorf("bb: implausible value length %d", vlen)
		}
		val := raw[pos : pos+int(vlen)]
		pos += int(vlen)
		m.Reports = append(m.Reports, labelVal{Path: path, Val: val})
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

// sendRound emits EIG round k's reports to every other participant.
func (nd *refNode) sendRound(k int) []sim.Message {
	var reports []labelVal
	if k == 0 {
		// Generals announce their own value.
		nd.vals[labelKey([]graph.NodeID{nd.self})] = nd.myValue
		reports = append(reports, labelVal{Path: []graph.NodeID{nd.self}, Val: nd.myValue})
	} else {
		for _, lv := range nd.storedAtLevel(k) {
			if containsNode(lv.Path, nd.self) {
				continue
			}
			reports = append(reports, lv)
		}
	}
	payload := marshalRound(roundMsg{K: k, Reports: reports})
	var out []sim.Message
	for _, q := range nd.participants {
		if q == nd.self {
			continue
		}
		out = append(out, nd.router.Send(q, msgID(k), payload)...)
	}
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
		if err != nil || msg.K != k {
			continue
		}
		for _, lv := range msg.Reports {
			if !nd.validLabel(lv.Path, k, p) {
				continue
			}
			// Round 0 carries the general's own label [g]; later rounds
			// extend the reported label by the reporting sender.
			stored := lv.Path
			if k > 0 {
				stored = append(append([]graph.NodeID(nil), lv.Path...), p)
			}
			key := labelKey(stored)
			if _, dup := nd.vals[key]; !dup {
				nd.vals[key] = lv.Val
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

// validLabel checks an incoming report's label. Round-0 reports carry the
// general's own single-element label; round-k (k >= 1) reports from p carry
// labels of length k over distinct participants, not containing p.
func (nd *refNode) validLabel(path []graph.NodeID, k int, from graph.NodeID) bool {
	if k == 0 {
		return len(path) == 1 && path[0] == from
	}
	if len(path) != k {
		return false
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range path {
		if !nd.inP[v] || seen[v] {
			return false
		}
		seen[v] = true
	}
	return !seen[from]
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
