// Example streaming demonstrates the Session API — the streaming,
// engine-agnostic entrypoint: a producer submits payloads continuously
// with backpressure while a consumer handles commits as they land, the
// pipelined engine keeping W instances in flight in between. A scripted
// false-alarmer forces dispute control mid-stream, and the session keeps
// committing through the barrier replays.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"nab"
)

func main() {
	const (
		n        = 7
		f        = 2
		lenBytes = 48
		window   = 4
		payloads = 24
	)
	g := nab.CompleteGraph(n, 2)
	ctx := context.Background()

	sess, err := nab.Open(ctx, nab.Config{
		Graph: g, Source: 1, F: f, LenBytes: lenBytes, Seed: 1,
	},
		nab.WithWindow(window),
		nab.WithAdversary(4, nab.FalseAlarmAdversary()),       // MISMATCH every instance it survives
		nab.WithAdversary(6, nab.SeededRandomAdversary(2025)), // seeded: deterministic at any window
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Producer: an open-loop client. Submit blocks whenever the pipeline
	// is saturated — backpressure instead of an unbounded queue.
	go func() {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < payloads; i++ {
			p := make([]byte, lenBytes)
			rng.Read(p)
			if _, err := sess.Submit(ctx, p); err != nil {
				log.Printf("submit: %v", err)
				return
			}
		}
		sess.Drain(ctx) // no more submissions; commits keep flowing
	}()

	// Consumer: commits arrive strictly in Seq order, each carrying the
	// full instance report.
	for c := range sess.Commits() {
		fmt.Printf("instance %2d: %d outputs, mismatch=%-5v phase3=%-5v modelTime=%.1f\n",
			c.Seq, len(c.Result.Outputs), c.Result.Mismatch, c.Result.Phase3, c.Result.TotalTime())
	}
	if err := sess.Err(); err != nil {
		log.Fatal(err)
	}

	// The session keeps no per-instance reports (they went out on
	// Commits); its result is the running aggregates.
	res := sess.Result()
	fmt.Printf("\nstreamed %d instances in %.2fs (%.1f inst/s wall), %d dispute phases, %d barrier replays\n",
		res.Committed(), res.Wall.Seconds(), res.InstancesPerSec(), res.DisputePhases(), res.Replays)
	fmt.Printf("final dispute set: %v\n", sess.Disputes())
}
