package experiments

import (
	"math/rand"
	"strconv"
)

// itoa is the cell formatter for integer columns.
func itoa(v int) string { return strconv.Itoa(v) }

// e1Spec exercises Theorem 6.27: A_nuc solves nonuniform consensus using
// (Ω, Σν+) in any environment — here swept over n, every number of
// failures f (including f ≥ n/2, where majority-based algorithms are
// stuck), randomized crash times and detector noise.
var e1Spec = &Spec{
	ID: "E1",
	// Portable: every execution goes through runConsensus, and the claim
	// is about outcomes, not step order.
	Portable: true,
	Title:    "A_nuc solves nonuniform consensus with (Ω, Σν+)",
	Claim: "Theorem 6.27: in any environment, every admissible run of A_nuc " +
		"using (Ω, Σν+) satisfies termination, validity and nonuniform agreement.",
	Columns: []string{"n", "f", "runs", "ok", "avg steps", "avg rounds", "avg msgs"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 4, 5, 6, 7}, func(n int) []int {
			fs := make([]int, n) // every f < n
			for f := range fs {
				fs[f] = f
			}
			return fs
		})
	},
	Unit: func(sc Scale, cfg Config, rng *rand.Rand) UnitResult {
		return outcomeUnit(sc, cfg, rng, aNuc, 80, 120, sc.MaxSteps)
	},
	Row: func(_ Scale, g Group) []string {
		return nfRow(g, g.Avg("steps"), g.Avg("rounds"), g.Avg("msgs"))
	},
}

// e2Spec exercises Theorems 6.28/6.29: (Ω, Σν) suffices end to end — A_nuc
// composed with T_{Σν→Σν+}, driven by adversarial Σν histories whose
// faulty modules emit junk quorums.
var e2Spec = &Spec{
	ID: "E2",
	// Portable: every execution goes through runConsensus, and the claim
	// is about outcomes, not step order.
	Portable: true,
	Title:    "(Ω, Σν) solves nonuniform consensus via T_{Σν→Σν+} ∘ A_nuc",
	Claim: "Theorem 6.28: running T_{Σν→Σν+} concurrently with A_nuc solves " +
		"nonuniform consensus with (Ω, Σν) in any environment.",
	Columns: []string{"n", "f", "runs", "ok", "avg steps", "avg rounds"},
	Configs: func(sc Scale) []Config {
		// DAG-based runs are quadratic in steps.
		return grid(Config{}, min(sc.Seeds, 3), []int{3, 4, 5}, func(n int) []int { return []int{0, 1, n - 1} })
	},
	Unit: func(sc Scale, cfg Config, rng *rand.Rand) UnitResult {
		boosted := paired{build: boostedANuc, quorum: sigmaNu}
		return outcomeUnit(sc, cfg, rng, boosted, 60, 100, min(sc.MaxSteps, 6000))
	},
	Row: func(_ Scale, g Group) []string {
		return nfRow(g, g.Avg("steps"), g.Avg("rounds"))
	},
}

// q1Spec measures decision latency (steps and rounds until every correct
// process decides) for A_nuc vs the Mostéfaoui–Raynal baselines, at
// minority failures (all three run) and at f = n−1 (only the
// quorum-failure-detector algorithms terminate; MR-majority blocks, which
// is the separation the paper's "any environment" claim is about).
var q1Spec = &Spec{
	ID: "Q1",
	// Portable: every execution goes through runConsensus, and the claim
	// is about outcomes, not step order.
	Portable: true,
	Title:    "Decision latency vs n and f: A_nuc vs MR-majority vs MR-Σ",
	Claim: "§6.3: A_nuc pays extra rounds/messages over MR for nonuniformity " +
		"defenses; MR-majority cannot terminate once f ≥ n/2 while A_nuc and MR-Σ can.",
	Columns: []string{"n", "f", "A_nuc steps", "A_nuc rounds", "MR-maj steps", "MR-Σ steps"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 5, 7, 9, 11}, func(n int) []int { return []int{(n - 1) / 2, n - 1} })
	},
	Unit: func(sc Scale, cfg Config, rng *rand.Rand) UnitResult {
		var u UnitResult
		pattern := randomPattern(cfg.N, cfg.F, 60, rng)
		props := mixedProposals(cfg.N, rng)
		for _, c := range []struct {
			key  string
			a    paired
			runs bool
		}{{"a", aNuc, true}, {"m", mrMajority, 2*cfg.F < cfg.N}, {"s", mrSigma, true}} {
			if !c.runs {
				continue
			}
			r, err := runConsensus(sc, c.a.build(props), pattern, c.a.hist(pattern, 100, cfg.Seed), cfg.Seed, sc.MaxSteps)
			if err != nil || !r.Decided {
				u.failf("%v: %s did not decide: err=%v", cfg, c.a.alg, err)
				continue
			}
			u.Add(c.key+"Steps", r.Steps)
			u.Add(c.key+"Rounds", r.MaxRound)
			u.Add(c.key+"N", 1)
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		mCell := "blocks (f ≥ n/2)"
		if 2*g.Key.F < g.Key.N {
			mCell = avg(g.Sum("mSteps"), g.Sum("mN"))
		}
		return []string{itoa(g.Key.N), itoa(g.Key.F),
			avg(g.Sum("aSteps"), g.Sum("aN")), avg(g.Sum("aRounds"), g.Sum("aN")),
			mCell, avg(g.Sum("sSteps"), g.Sum("sN"))}
	},
}

// q2Spec measures message complexity per decision by payload kind, showing
// the SAW/ACK overhead A_nuc pays for the quorum-awareness property.
var q2Spec = &Spec{
	ID: "Q2",
	// Portable: every execution goes through runConsensus, and the claim
	// is about outcomes, not step order.
	Portable: true,
	Title:    "Messages per decided run, by kind (A_nuc vs MR-Σ)",
	Claim: "§6.3: A_nuc adds the SAW/ACK quorum-awareness traffic and history " +
		"piggybacking on top of MR's LEAD/REP/PROP pattern.",
	Columns: []string{"algorithm", "n", "LEAD", "REP", "PROP", "SAW", "ACK", "total"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for _, n := range []int{3, 5, 7, 9} {
			for _, a := range bothSides {
				cfgs = append(cfgs, seedRange(Config{Label: a.alg, N: n}, sc.Seeds)...)
			}
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, rng *rand.Rand) UnitResult {
		var u UnitResult
		a := aNuc
		if cfg.Label == mrSigma.alg {
			a = mrSigma
		}
		pattern := randomPattern(cfg.N, (cfg.N-1)/2, 60, rng)
		r, err := runConsensus(sc, a.build(mixedProposals(cfg.N, rng)), pattern, a.hist(pattern, 100, cfg.Seed), cfg.Seed, sc.MaxSteps)
		if err != nil || !r.Decided {
			u.failf("%v: decided=%v err=%v", cfg, r.Decided, err)
			return u
		}
		u.OK = true
		for k, v := range r.Kinds {
			u.Add(k, v)
		}
		u.Add("total", r.Sent)
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{g.Key.Label, itoa(g.Key.N),
			g.Avg("LEAD"), g.Avg("REP"), g.Avg("PROP"),
			g.Avg("SAW"), g.Avg("ACK"), g.Avg("total")}
	},
}
