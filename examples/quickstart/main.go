// Quickstart: solve nonuniform consensus among five processes, two of
// which crash, using the paper's algorithm A_nuc driven by (Ω, Σν+) — on
// all three substrates: the deterministic model simulator, the goroutine
// runtime, and a real TCP mesh on loopback.
package main

import (
	"fmt"
	"log"
	"sort"

	"nuconsensus"
)

func main() {
	const n = 5
	proposals := []int{10, 20, 20, 10, 20} // process p proposes proposals[p]

	// Two processes crash: p1 early, p4 later.
	pattern := nuconsensus.Crashes(n, map[nuconsensus.ProcessID]nuconsensus.Time{
		1: 50,
		4: 200,
	})

	// Canonical detector histories: noisy before t=300, stable afterwards.
	history := nuconsensus.Pair(
		nuconsensus.Omega(pattern, 300, 1),
		nuconsensus.SigmaNuPlus(pattern, 300, 1),
	)

	fmt.Println("== deterministic simulator ==")
	res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
		Automaton:       nuconsensus.ANuc(proposals),
		Pattern:         pattern,
		History:         history,
		Seed:            42,
		StopWhenDecided: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	report(res, pattern)

	fmt.Println("== goroutine runtime ==")
	res, err = nuconsensus.RunCluster(nuconsensus.ClusterOptions{
		Automaton: nuconsensus.ANuc(proposals),
		Pattern:   pattern,
		History:   history,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	report(res, pattern)

	fmt.Println("== TCP loopback mesh ==")
	res, err = nuconsensus.RunTCP(nuconsensus.ClusterOptions{
		Automaton: nuconsensus.ANuc(proposals),
		Pattern:   pattern,
		History:   history,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	report(res, pattern)
}

func report(res *nuconsensus.SimResult, pattern *nuconsensus.FailurePattern) {
	fmt.Printf("steps: %d, messages: %d, all correct decided: %v\n",
		res.Steps, res.MessagesSent, res.Decided)
	var ps []nuconsensus.ProcessID
	for p := range res.Decisions {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	for _, p := range ps {
		fmt.Printf("  %v decided %d\n", p, res.Decisions[p])
	}
	if err := nuconsensus.CheckNonuniformConsensus(res.Config, pattern); err != nil {
		log.Fatalf("consensus violated: %v", err)
	}
	fmt.Println("nonuniform consensus: termination ✓ validity ✓ agreement ✓")
	fmt.Println()
}
