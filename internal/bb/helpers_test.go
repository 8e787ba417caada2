package bb

import "nab/internal/graph"

// validLabel is the acceptance rule for one incoming report's label, as
// the tests have always phrased it. For a round the protocol runs (k <= t)
// it is exactly "labelIndex finds the report a slot"; the rule is also
// asked about k = t+1, where the extended label would lie below the
// leaves, so there the label and the sender are judged without a slot.
func (nd *Node) validLabel(path []graph.NodeID, k int, from graph.NodeID) bool {
	if k <= nd.t {
		return nd.labelIndex(path, k, from) >= 0
	}
	i, q := nd.pathIndex(path), nd.rankOf(from)
	return len(path) == k && i >= 0 && q >= 0 && !nd.lay.contains(i, q)
}
