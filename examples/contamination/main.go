// Contamination: the executable version of the scenario in §6.3 of the
// paper, which motivates all of A_nuc's extra machinery.
//
// Naively replacing majorities with Σν quorums in the Mostéfaoui–Raynal
// algorithm looks plausible — Σν quorums at correct processes intersect,
// just like majorities. But Σν lets a *faulty* process use quorums that
// intersect nothing: that process races ahead deciding on its own stale
// estimate, and when Ω (legally!) points correct stragglers at it before
// stabilizing, they adopt the stale estimate and later decide on it, while
// another correct process has already decided the other value. Two correct
// processes decide differently: nonuniform agreement is violated.
//
// A_nuc survives the exact same detector histories and schedules: quorum
// histories travel on every message, the "distrust" rule rejects estimates
// from processes whose quorums provably conflict with live ones, and the
// SAW/ACK quorum-awareness handshake gates decisions (§6.3).
package main

import (
	"fmt"
	"log"
	"sort"

	"nuconsensus"
)

func main() {
	const (
		n         = 3
		misleader = nuconsensus.ProcessID(2) // faulty, crashes late
		period    = 40
		stabilize = 280
	)
	pattern := nuconsensus.Crashes(n, map[nuconsensus.ProcessID]nuconsensus.Time{
		misleader: stabilize + 40,
	})
	proposals := []int{0, 0, 1} // the misleader alone proposes 1

	naiveViolations, anucViolations := 0, 0
	const seeds = 20
	var exampleSeed int64 = -1
	for seed := int64(1); seed <= seeds; seed++ {
		history := nuconsensus.Pair(
			nuconsensus.AlternatingOmega(misleader, 0, period, stabilize),
			nuconsensus.SigmaNu(pattern, stabilize, seed),
		)

		// The naive algorithm under the adversary.
		res, err := nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton:       nuconsensus.MRNaiveNu(proposals),
			Pattern:         pattern,
			History:         history,
			Seed:            seed,
			StopWhenDecided: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := nuconsensus.CheckNonuniformConsensus(res.Config, pattern); err != nil {
			naiveViolations++
			if exampleSeed < 0 {
				exampleSeed = seed
				fmt.Printf("seed %d, naive MR with Σν quorums:\n", seed)
				var ps []nuconsensus.ProcessID
				for p := range res.Decisions {
					ps = append(ps, p)
				}
				sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
				for _, p := range ps {
					fmt.Printf("  %v decided %d\n", p, res.Decisions[p])
				}
				fmt.Printf("  -> %v\n\n", err)
			}
		}

		// A_nuc (with T_{Σν→Σν+}, per Theorem 6.28) on the same histories.
		res, err = nuconsensus.Simulate(nuconsensus.SimOptions{
			Automaton:       nuconsensus.BoostedANuc(proposals),
			Pattern:         pattern,
			History:         history,
			Seed:            seed,
			MaxSteps:        8000,
			StopWhenDecided: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := nuconsensus.CheckNonuniformConsensus(res.Config, pattern); err != nil {
			anucViolations++
		}
	}

	fmt.Printf("across %d adversarial executions:\n", seeds)
	fmt.Printf("  naive MR+Σν     : %d nonuniform-agreement violations (contamination)\n", naiveViolations)
	fmt.Printf("  T_{Σν→Σν+}∘A_nuc: %d violations\n", anucViolations)
	if naiveViolations == 0 {
		log.Fatal("expected the adversary to contaminate the naive algorithm")
	}
	if anucViolations != 0 {
		log.Fatal("A_nuc must never violate nonuniform agreement")
	}
	fmt.Println("\nA_nuc's distrust rule and quorum-awareness handshake block the contamination (§6.3).")
}
