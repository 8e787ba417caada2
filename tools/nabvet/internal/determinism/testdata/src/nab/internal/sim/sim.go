// Package sim impersonates the repo's nab/internal/sim import path: the
// lockstep engine, whose charges every differential compares, is in the
// analyzer's scope in full.
package sim

import "time"

func roundDeadline() time.Time {
	return time.Now().Add(time.Second) // want `time\.Now in deterministic code`
}

// maxOverLinks ranges a map into an order-free reduction: silent.
func maxOverLinks(bits map[int]float64) float64 {
	var out float64
	for _, b := range bits {
		out = max(out, b)
	}
	return out
}
