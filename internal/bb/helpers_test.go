package bb

import (
	"slices"

	"nab/internal/graph"
)

// labelAt returns the slot of the label spelled by participant ids, or -1
// if they spell none (a stranger, a repeated id, longer than t+1).
func (nd *Node) labelAt(ids ...graph.NodeID) int32 {
	i := int32(-1)
	for d, id := range ids {
		q, ok := slices.BinarySearch(nd.participants, id)
		switch {
		case !ok || d > nd.t:
			return -1
		case d == 0:
			i = int32(q)
		default:
			if i = nd.lay.child[int(i)*nd.lay.n+q]; i < 0 {
				return -1
			}
		}
	}
	return i
}
