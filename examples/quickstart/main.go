// Quickstart: Byzantine broadcast among 4 nodes over a unit-capacity
// complete network, tolerating 1 Byzantine node, through the Session API.
// A producer submits payloads with backpressure while the consumer prints
// commits as they land; the pipelined engine keeps W instances in flight
// in between. Node 3 raises false alarms, so dispute control runs
// mid-stream and the session keeps committing through it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"nab"
)

func main() {
	const lenBytes = 32
	ctx := context.Background()
	sess, err := nab.Open(ctx, nab.Config{
		Graph:    nab.CompleteGraph(4, 1), // K4, every link carries 1 bit per time unit
		Source:   1,                       // node 1 broadcasts
		F:        1,                       // tolerate one Byzantine node
		LenBytes: lenBytes,
	},
		nab.WithWindow(4), // instances in flight
		nab.WithAdversary(3, nab.FalseAlarmAdversary()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Producer: Submit blocks whenever the pipeline is saturated.
	go func() {
		for i := 0; i < 8; i++ {
			p := fmt.Appendf(nil, "payload %-24d", i+1) // exactly lenBytes
			if _, err := sess.Submit(ctx, p); err != nil {
				log.Printf("submit: %v", err)
				return
			}
		}
		sess.Drain(ctx) // no more submissions; commits keep flowing
	}()

	// Consumer: commits arrive strictly in Seq order.
	for c := range sess.Commits() {
		fmt.Printf("instance %d: node 2 decided %q (phase3=%v, %.1f time units)\n",
			c.Seq, c.Result.Outputs[2], c.Result.Phase3, c.Result.TotalTime())
	}
	if err := sess.Err(); err != nil {
		log.Fatal(err)
	}
	res := sess.Result()
	fmt.Printf("%d instances, %d dispute phases, final dispute set %v\n",
		res.Committed(), res.DisputePhases(), sess.Disputes())
}
