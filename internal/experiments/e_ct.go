package experiments

import (
	"math/rand"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
)

// e15Spec exercises the Chandra–Toueg baseline (the paper's reference [2]):
// ◇S plus a correct majority solves uniform consensus; without the
// majority the algorithm (correctly) blocks. Alongside Q1 it completes the
// baseline picture: majority algorithms (MR-Ω, CT-◇S) stop at f < n/2,
// quorum-detector algorithms (MR-Σ, A_nuc) cover every f < n.
var e15Spec = &Spec{
	ID: "E15",
	// Portable: every execution goes through runConsensus, and the claim
	// is about outcomes, not step order.
	Portable: true,
	Title:    "Chandra–Toueg (◇S + majority) baseline",
	Claim: "[2]: the rotating-coordinator algorithm solves uniform consensus " +
		"with ◇S when a majority is correct — and cannot terminate otherwise.",
	Columns: []string{"n", "f", "runs", "ok", "avg steps", "avg rounds"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 5, 7}, func(n int) []int { return []int{0, (n - 1) / 2, (n + 1) / 2} })
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		n, f, seed := cfg.N, cfg.F, cfg.Seed
		majorityOK := 2*f < n
		pattern, budget := staggered(n, f, true, 10, 11), sc.MaxSteps
		if !majorityOK {
			// The blocking claim needs the majority to be gone from the
			// start: with late crashes a round can legitimately finish
			// before they happen. Expecting a block, keep it cheap.
			pattern, budget = staggered(n, f, true, 1, 0), blockBudget(4000)
		}
		props := make([]int, n)
		for i := range props {
			props[i] = i % 2
		}
		r, err := runConsensus(sc, consensus.NewCT(props), pattern,
			fd.NewSuspicion(pattern, 90, seed), seed, budget)
		switch {
		case err != nil:
			u.failf("%v: %v", cfg, err)
		case majorityOK && (!r.Decided || r.Outcome.UniformConsensus(pattern) != nil):
			u.failf("%v: decided=%v %v", cfg, r.Decided, r.Outcome.UniformConsensus(pattern))
		case majorityOK:
			u.OK = true
			u.Add("steps", r.Steps)
			u.Add("rounds", r.MaxRound)
		case r.Decided || r.Outcome.UniformAgreement() != nil:
			// Correct behavior is to block, never to decide wrongly.
			u.failf("%v: decided without a majority", cfg)
		default:
			u.OK = true
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		cell, roundCell := g.AvgOverOK("steps"), g.AvgOverOK("rounds")
		if 2*g.Key.F >= g.Key.N {
			cell, roundCell = "blocks (f ≥ n/2)", "—"
		}
		return nfRow(g, cell, roundCell)
	},
}
