package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"nab/internal/coding"
	"nab/internal/gf"
	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/spantree"
)

// Phase1Msg carries one tree block during unreliable broadcast.
type Phase1Msg struct {
	Tree  int
	Block BitChunk
}

// EqMsg carries the coded symbols of the equality check.
type EqMsg struct {
	Symbols []gf.Elem
}

// nodeState is the per-node, per-instance protocol state shared by the
// phase processes. Honest nodes record truthful claims as they go; the
// adversary hooks let faulty nodes deviate at each decision point while the
// recorded state still reflects what they actually did or pretended.
type nodeState struct {
	id     graph.NodeID
	adv    Adversary
	source graph.NodeID

	lenBits int
	gamma   int
	rho     int
	symBits uint
	stripes int

	trees  []*spantree.Arborescence
	scheme *coding.Scheme
	adj    *nodeAdj // the node's links in G_k and children in the trees

	input []byte // source only

	myBlocks   []BitChunk // one per tree; empty until received (finishPhase1 defaults the rest)
	haveBlock  []bool
	recvClaims []TreeEdgeClaim
	sentClaims []TreeEdgeClaim

	value     []byte
	x         []gf.Elem // stripes x rho symbols, stripe-major; shared read-only by co-hosted nodes of equal value
	sentCoded []CodedClaim
	recvCoded []CodedClaim
	flag      bool

	// coded holds this execution's equality-check encodings by G_k edge
	// position, published by local honest senders; nil when the execution
	// hosts a single node of G_k.
	coded []codedEdge
}

// codedEdge is one G_k edge's equality-check encoding: X * C_e for the
// sender's packed value x. A receiver whose x is the same slice reads it
// in place of encoding X * C_e again.
type codedEdge struct {
	x    []gf.Elem
	syms []gf.Elem
}

// nodeAdj is one node's neighbourhood in a plan: its out- and in-edges in
// G_k and its children in each tree, so the phases read them instead of
// rebuilding them from the graph for every instance.
type nodeAdj struct {
	out      []graph.Edge     // G_k out-edges, by destination
	in       []graph.Edge     // G_k in-edges, by origin
	children [][]graph.NodeID // children[t]: the node's children in tree t, ascending

	// Edge positions in G_k (graph.Directed.EdgeIndex): out[j] is edge
	// outAt+j, in[i] is edge inAt[i].
	outAt int
	inAt  []int
}

// planAdjacency returns every G_k node's neighbourhood.
func planAdjacency(gk *graph.Directed, trees []*spantree.Arborescence) map[graph.NodeID]*nodeAdj {
	adj := make(map[graph.NodeID]*nodeAdj, gk.NumNodes())
	at := 0
	for _, v := range gk.Nodes() {
		a := &nodeAdj{out: gk.OutEdges(v), in: gk.InEdges(v), children: make([][]graph.NodeID, len(trees)), outAt: at}
		a.inAt = make([]int, len(a.in))
		for i, e := range a.in {
			a.inAt[i], _ = gk.EdgeIndex(e.From, v)
		}
		adj[v] = a
		at += len(a.out)
	}
	for ti, tr := range trees {
		for _, e := range tr.Edges() {
			if a := adj[e.From]; a != nil {
				a.children[ti] = append(a.children[ti], e.To)
			}
		}
	}
	return adj
}

// newNodeState prepares instance state for one node.
func newNodeState(id graph.NodeID, adv Adversary, source graph.NodeID, input []byte, lenBits, rho int, symBits uint, stripes int, trees []*spantree.Arborescence, scheme *coding.Scheme, adj *nodeAdj) *nodeState {
	st := &nodeState{
		id: id, adv: adv, source: source, input: input,
		lenBits: lenBits, gamma: len(trees), rho: rho, symBits: symBits, stripes: stripes,
		trees: trees, scheme: scheme, adj: adj,
		myBlocks:  make([]BitChunk, len(trees)),
		haveBlock: make([]bool, len(trees)),
	}
	return st
}

func (st *nodeState) blockBits(tree int) int {
	lo := tree * st.lenBits / st.gamma
	hi := (tree + 1) * st.lenBits / st.gamma
	return hi - lo
}

// phase1Process returns the unreliable-broadcast behaviour: the source
// launches its split input down every tree in round 0; other nodes forward
// each tree's block to their tree children upon first receipt.
func (st *nodeState) phase1Process() sim.Process {
	return sim.StepFunc(func(round int, inbox []sim.Message) []sim.Message {
		var out []sim.Message
		if round == 0 && st.id == st.source {
			blocks, err := splitBits(st.input, st.lenBits, st.gamma)
			if err != nil {
				// Config validation guarantees splittable input.
				panic("core: source split: " + err.Error())
			}
			for ti := range st.trees {
				st.myBlocks[ti] = blocks[ti]
				st.haveBlock[ti] = true
				out = st.forwardBlock(out, ti)
			}
			return out
		}
		for _, m := range inbox {
			pm, ok := m.Body.(Phase1Msg)
			if !ok || pm.Tree < 0 || pm.Tree >= st.gamma {
				continue
			}
			tree := st.trees[pm.Tree]
			parent, inTree := tree.Parent[st.id]
			if !inTree || parent != m.From || st.haveBlock[pm.Tree] {
				continue // not my tree in-edge, or duplicate
			}
			block := normalizeChunk(pm.Block, st.blockBits(pm.Tree))
			st.myBlocks[pm.Tree] = block
			st.haveBlock[pm.Tree] = true
			st.recvClaims = append(st.recvClaims, TreeEdgeClaim{Tree: pm.Tree, From: parent, To: st.id, Block: block})
			out = st.forwardBlock(out, pm.Tree)
		}
		return out
	})
}

// forwardBlock appends the block of the given tree, sent to each of the
// node's children, to out, applying the adversary's corruption hook per
// child.
func (st *nodeState) forwardBlock(out []sim.Message, tree int) []sim.Message {
	if st.adv.SilentIn("phase1") {
		return out
	}
	for _, child := range st.adj.children[tree] {
		block := st.adv.CorruptBlock(tree, child, st.myBlocks[tree])
		st.sentClaims = append(st.sentClaims, TreeEdgeClaim{Tree: tree, From: st.id, To: child, Block: block})
		out = append(out, sim.Message{
			From: st.id,
			To:   child,
			Bits: int64(block.BitLen),
			Body: Phase1Msg{Tree: tree, Block: block},
		})
	}
	return out
}

// finishPhase1 assembles the node's value from its (normalized) blocks; the
// source uses its own input. A tree that never delivered reads as the
// all-zero default block, and the node records a "received nothing" claim
// for it, so the audit sees the default-value read.
func (st *nodeState) finishPhase1() error {
	if st.id == st.source {
		st.value = st.input
		return nil
	}
	for ti, ok := range st.haveBlock {
		if !ok {
			st.myBlocks[ti] = normalizeChunk(BitChunk{}, st.blockBits(ti))
			parent := st.trees[ti].Parent[st.id]
			st.recvClaims = append(st.recvClaims, TreeEdgeClaim{Tree: ti, From: parent, To: st.id, Block: st.myBlocks[ti]})
		}
	}
	v, err := joinBits(st.myBlocks, st.lenBits)
	if err != nil {
		return fmt.Errorf("core: node %d join: %w", st.id, err)
	}
	st.value = v
	return nil
}

// packValues packs X for every node of states, once per distinct value:
// nodes whose Phase-1 values are byte-equal share one read-only x. states
// must be in a deterministic order.
func packValues(states []*nodeState) error {
	for i, st := range states {
		if j := slices.IndexFunc(states[:i], func(o *nodeState) bool { return bytes.Equal(o.value, st.value) }); j >= 0 {
			st.x = states[j].x
			continue
		}
		x, err := coding.PackValue(st.value, st.rho*st.stripes, st.symBits)
		if err != nil {
			return fmt.Errorf("core: node %d pack: %w", st.id, err)
		}
		st.x = x
	}
	return nil
}

// equalityProcess returns the node's two-round equality-check behaviour.
func (st *nodeState) equalityProcess() sim.Process { return equalityCheck{st} }

// equalityCheck is the equality check of one node: round 0 sends X_i * C_e
// on every outgoing edge of G_k, round 1 verifies every incoming edge's
// symbols and sets the MISMATCH flag.
type equalityCheck struct{ st *nodeState }

// Step implements sim.Process.
func (c equalityCheck) Step(round int, inbox []sim.Message) []sim.Message {
	switch round {
	case 0:
		return c.st.sendCoded()
	case 1:
		c.st.checkCoded(inbox)
	}
	return nil
}

// sendCoded encodes X_i * C_e for every out-edge e. An honest sender
// publishes each encoding, uncorrupted, for the co-hosted receivers.
func (st *nodeState) sendCoded() []sim.Message {
	if st.adv.SilentIn("equality") {
		return nil
	}
	_, honest := st.adv.(Honest)
	// One symbol array for every out-edge, one window each.
	n := 0
	for _, e := range st.adj.out {
		n += st.stripes * int(e.Cap)
	}
	all := make([]gf.Elem, n)
	out := make([]sim.Message, 0, len(st.adj.out))
	st.sentCoded = slices.Grow(st.sentCoded, len(st.adj.out))
	for j, e := range st.adj.out {
		size := st.stripes * int(e.Cap)
		syms := all[:size:size]
		all = all[size:]
		if err := st.scheme.EncodeStripes(st.id, e.To, st.x, syms); err != nil {
			panic("core: encode: " + err.Error())
		}
		syms = st.adv.CorruptCoded(e.To, syms)
		if honest && st.coded != nil {
			st.coded[st.adj.outAt+j] = codedEdge{x: st.x, syms: syms}
		}
		st.sentCoded = append(st.sentCoded, CodedClaim{From: st.id, To: e.To, Symbols: syms})
		out = append(out, sim.Message{
			From: st.id,
			To:   e.To,
			Bits: int64(len(syms)) * int64(st.symBits),
			Body: EqMsg{Symbols: syms},
		})
	}
	return out
}

// checkCoded records the symbols received on every in-edge and raises the
// flag if any of them differs from X_i * C_e.
func (st *nodeState) checkCoded(inbox []sim.Message) {
	in := st.adj.in
	got := make([][]gf.Elem, len(in)) // by in-edge; nil if missing
	seen := make([]bool, len(in))
	for _, m := range inbox {
		em, ok := m.Body.(EqMsg)
		if !ok {
			continue
		}
		i, ok := slices.BinarySearchFunc(in, m.From, func(e graph.Edge, from graph.NodeID) int { return cmp.Compare(e.From, from) })
		if !ok {
			continue // not an instance-graph link; protocol ignores it
		}
		if !seen[i] {
			got[i], seen[i] = em.Symbols, true
		}
	}
	st.recvCoded = slices.Grow(st.recvCoded, len(in))
	for i, e := range in {
		syms := got[i] // nil if missing: counts as mismatch
		st.recvCoded = append(st.recvCoded, CodedClaim{From: e.From, To: st.id, Symbols: syms})
		if st.mismatch(i, syms) {
			st.flag = true
		}
	}
}

// mismatch reports whether syms, received on in-edge i, differ from
// X_i * C_e. When a co-hosted honest sender encoded this node's very x
// for the edge, its published symbols are X_i * C_e and no encoding is
// repeated; otherwise CheckStripes encodes them.
func (st *nodeState) mismatch(i int, syms []gf.Elem) bool {
	if st.coded != nil {
		if c := st.coded[st.adj.inAt[i]]; c.syms != nil && &c.x[0] == &st.x[0] {
			return !coding.ValuesEqual(c.syms, syms)
		}
	}
	mm, err := st.scheme.CheckStripes(st.adj.in[i].From, st.id, st.x, syms)
	if err != nil {
		panic("core: check: " + err.Error())
	}
	return mm
}

// buildClaims assembles the node's Phase-3 transcript from its records.
func (st *nodeState) buildClaims() *Claims {
	c := &Claims{
		Node:       st.id,
		SentBlocks: append([]TreeEdgeClaim(nil), st.sentClaims...),
		RecvBlocks: append([]TreeEdgeClaim(nil), st.recvClaims...),
		SentCoded:  append([]CodedClaim(nil), st.sentCoded...),
		RecvCoded:  append([]CodedClaim(nil), st.recvCoded...),
		Flag:       st.announcedFlag(),
	}
	if st.id == st.source {
		c.SourceInput = st.input
	}
	return st.adv.CorruptClaims(c)
}

// announcedFlag is the flag the node presents to the world: honest nodes
// announce their computed flag; the adversary may override.
func (st *nodeState) announcedFlag() bool {
	return st.adv.OverrideFlag(st.flag)
}
