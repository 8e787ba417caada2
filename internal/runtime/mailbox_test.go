package runtime

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nab/internal/graph"
	"nab/internal/sim"
	"nab/internal/transport"
)

// TestMailboxMatchesLockstepOrder feeds one mailbox its step frames in
// random arrival orders, mixed with frames that must never fill a slot: a
// repeat from the same sender (after its first frame), a frame from a node
// that is not an in-neighbour, a single-body frame, a frame for step 0
// (which has none) and a frame for a step already consumed. After every
// arrival the next step must be ready exactly when each in-neighbour's
// first frame for it is in, deliver must report exactly the arrivals that
// made it ready, and take must yield the lockstep inbox: the first frames'
// packets, stable-sorted by sender, so each sender's packets stay in
// emission order.
func TestMailboxMatchesLockstepOrder(t *testing.T) {
	const self, steps = graph.NodeID(5), 4
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var in []graph.NodeID
		for u := graph.NodeID(1); u <= 9; u++ {
			if u != self && rng.Intn(2) == 0 {
				in = append(in, u)
			}
		}
		if len(in) == 0 {
			in = append(in, 9)
		}
		foreign := graph.NodeID(11)
		frame := func(from graph.NodeID, step uint32, tag byte) *transport.Message {
			m := &transport.Message{Instance: 1, Step: step, From: from, To: self, Packets: []transport.Packet{}}
			for j := rng.Intn(4); j > 0; j-- {
				b := int64(rng.Intn(40))
				m.Packets = append(m.Packets, transport.Packet{Bits: b, Body: []byte{byte(from), byte(step), byte(j), tag}})
				m.Bits += b
			}
			return m
		}

		// The genuine frames, one per (step, in-neighbour), shuffled with
		// frames that must be ignored wherever they land.
		var queue []*transport.Message
		genuine := map[*transport.Message]bool{}
		for s := uint32(1); s <= steps; s++ {
			for _, u := range in {
				g := frame(u, s, 'g')
				genuine[g] = true
				queue = append(queue, g)
			}
			single := frame(in[rng.Intn(len(in))], s, 'b')
			single.Packets, single.Body = nil, []byte("one body")
			queue = append(queue, frame(foreign, s, 'f'), single)
		}
		rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
		// A repeat lands anywhere after the frame it repeats.
		for i := len(queue) - 1; i >= 0; i-- {
			if g := queue[i]; genuine[g] && rng.Intn(2) == 0 {
				queue = slices.Insert(queue, i+1+rng.Intn(len(queue)-i), frame(g.From, g.Step, 'd'))
			}
		}

		mb := newMailbox(in)
		// Step 0 has no frames: one claiming it must not reach its inbox.
		zero := &transport.Message{Instance: 1, From: in[0], To: self, Bits: 8, Packets: []transport.Packet{{Bits: 8, Body: []byte{0}}}}
		if mb.deliver(zero) {
			t.Fatalf("seed %d: a step 0 frame released a step", seed)
		}
		if !mb.ready() {
			t.Fatalf("seed %d: step 0 not ready", seed)
		}
		if inbox := mb.take(); len(inbox) != 0 {
			t.Fatalf("seed %d: step 0 inbox %v; want empty", seed, inbox)
		}
		next := uint32(1)
		arrived := map[uint32][]*transport.Message{}
		for i := 0; i < len(queue); i++ {
			m := queue[i]
			if genuine[m] {
				arrived[m.Step] = append(arrived[m.Step], m)
			}
			before := mb.ready()
			if woke := mb.deliver(m); woke != (!before && mb.ready()) {
				t.Fatalf("seed %d: deliver of a step %d frame from %d reported %v; ready went %v -> %v", seed, m.Step, m.From, woke, before, mb.ready())
			}
			for ; next <= steps && len(arrived[next]) == len(in); next++ {
				if !mb.ready() {
					t.Fatalf("seed %d: step %d not ready with every in-neighbour's frame in", seed, next)
				}
				inbox := mb.take()
				var want []sim.Message
				for _, f := range arrived[next] {
					for _, p := range f.Packets {
						want = append(want, sim.Message{From: f.From, To: f.To, Bits: p.Bits, Body: p.Body})
					}
				}
				slices.SortStableFunc(want, func(a, b sim.Message) int { return cmp.Compare(a.From, b.From) })
				if len(inbox) != len(want) || len(want) > 0 && !reflect.DeepEqual(inbox, want) {
					t.Fatalf("seed %d: step %d inbox\n got %v\nwant %v", seed, next, inbox, want)
				}
				// A frame for the step just consumed arrives later.
				late := frame(in[rng.Intn(len(in))], next, 'l')
				queue = slices.Insert(queue, i+1+rng.Intn(len(queue)-i), late)
			}
			if next <= steps && mb.ready() {
				t.Fatalf("seed %d: step %d ready with %d of %d in-neighbours' frames in", seed, next, len(arrived[next]), len(in))
			}
		}
		if next != steps+1 {
			t.Fatalf("seed %d: released %d steps, want %d", seed, next-1, steps)
		}
		if len(mb.steps) != 0 {
			t.Errorf("seed %d: %d steps still buffered after every step was consumed", seed, len(mb.steps))
		}
	}
}
