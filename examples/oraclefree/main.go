// Oracle-free: the paper folded back into a deployable protocol stack.
//
// (Ω, Σν) is the weakest failure detector for nonuniform consensus — but
// where do you get one? In a partially synchronous system with a correct
// majority, you build both halves yourself:
//
//   - Ω from heartbeats with adaptive timeouts (internal/hb): suspicion of
//     correct processes eventually ceases once delays stabilize, and all
//     correct processes converge on the smallest unsuspected one;
//   - Σν+ from the Theorem 7.1 (IF) threshold algorithm, with the owner
//     forced into every quorum: (n−t)-sets pairwise intersect when
//     t < n/2, giving every Σν+ property for free.
//
// Composing the two with A_nuc yields nonuniform consensus with no failure
// detector at all — this run even survives a hostile pre-GST prefix in
// which the scheduler starves message delivery.
package main

import (
	"fmt"
	"log"
	"sort"

	"nuconsensus"
)

func main() {
	const (
		n   = 5
		t   = 2   // t < n/2 crashes tolerated
		gst = 400 // the scheduler misbehaves before this time
	)
	proposals := []int{100, 200, 100, 200, 100}
	pattern := nuconsensus.Crashes(n, map[nuconsensus.ProcessID]nuconsensus.Time{
		1: 60,
		3: 120,
	})

	res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
		Automaton:       nuconsensus.OracleFreeANuc(proposals, t),
		Pattern:         pattern,
		History:         nil, // no failure detector — that's the point
		Seed:            7,
		GST:             gst,
		MaxSteps:        80000,
		StopWhenDecided: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("partial synchrony: hostile until t=%d, timely afterwards\n", gst)
	fmt.Printf("crashes: p1@60, p3@120 (t=%d < n/2)\n\n", t)
	fmt.Printf("all correct decided: %v after %d steps, %d messages\n",
		res.Decided, res.Steps, res.MessagesSent)
	var ps []nuconsensus.ProcessID
	for p := range res.Decisions {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	for _, p := range ps {
		fmt.Printf("  %v decided %d\n", p, res.Decisions[p])
	}
	if !res.Decided {
		log.Fatal("expected decisions under partial synchrony")
	}
	if err := nuconsensus.CheckNonuniformConsensus(res.Config, pattern); err != nil {
		log.Fatalf("consensus violated: %v", err)
	}
	fmt.Println("\nnonuniform consensus with zero oracles: the (Ω, Σν+) pair was built")
	fmt.Println("from heartbeats and threshold quorums (internal/hb + Theorem 7.1 IF).")
	fmt.Printf("message profile: %v\n", res.SentKinds)
}
