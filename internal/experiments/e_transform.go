package experiments

import (
	"fmt"
	"math/rand"

	"nuconsensus/internal/check"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/transform"
)

// extractionBudget scales the step budget of DAG-extraction runs with n:
// the canonical path must be long enough for the simulated target algorithm
// to decide several times over, and decisions take more simulated steps at
// larger n.
func extractionBudget(n int) int { return 300 + 200*n }

// stabRow is the row of the detector-history specs without a label: n, f,
// runs, ok and the mean settling time of the passing runs.
func stabRow(_ Scale, g Group) []string { return nfRow(g, g.AvgOverOK("stab")) }

// e3Spec exercises Theorem 6.7: T_{Σν→Σν+} emits a valid Σν+ history — all
// four properties — when fed adversarial Σν histories (faulty modules
// emitting junk quorums).
var e3Spec = &Spec{
	ID:    "E3",
	Title: "T_{Σν→Σν+} transforms Σν to Σν+",
	Claim: "Theorem 6.7: in any environment, the DAG-based transformer's output " +
		"satisfies nonuniform intersection, completeness, self-inclusion and " +
		"conditional nonintersection.",
	Columns: []string{"n", "f", "runs", "ok", "avg stabilization t"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, min(sc.Seeds, 3), []int{3, 4, 5, 6}, func(n int) []int { return []int{0, 1, n - 1} })
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		pattern := randomPattern(cfg.N, cfg.F, 50, rng)
		return fdRun{aut: transform.NewSigmaNuPlusTransformer(cfg.N), pattern: pattern,
			hist: fd.NewSigmaNu(pattern, 90, cfg.Seed), steps: 500, spec: check.SigmaNuPlus}.unit(cfg)
	},
	Row: stabRow,
}

// e4Spec exercises Theorem 5.4: T_{D→Σν} emits a valid Σν history for two
// different detectors D that solve nonuniform consensus — D = (Ω, Σν+)
// with A = A_nuc, and D = (Ω, Σ) with A = MR-Σ.
var e4Spec = &Spec{
	ID:    "E4",
	Title: "T_{D→Σν} extracts Σν from any D that solves nonuniform consensus",
	Claim: "Theorem 5.4: the DAG/simulation extraction emits quorums satisfying " +
		"nonuniform intersection and completeness, for any (D, A) pair.",
	Columns: []string{"D", "A", "n", "f", "runs", "ok", "avg stabilization t"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for i, a := range bothSides {
			fs := func(n int) []int { return []int{1, n - 1} }
			cfgs = append(cfgs, grid(Config{Label: a.det, Arg: i}, min(sc.Seeds, 2), []int{3, 4}, fs)...)
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		a := bothSides[cfg.Arg]
		pattern := randomPattern(cfg.N, cfg.F, 40, rng)
		return fdRun{aut: transform.NewSigmaNuExtractor(cfg.N, a.build, 1), pattern: pattern,
			hist: a.hist(pattern, 40, cfg.Seed), steps: extractionBudget(cfg.N), spec: check.SigmaNu}.unit(cfg)
	},
	Row: func(_ Scale, g Group) []string {
		a := bothSides[g.Key.Arg]
		return append([]string{a.det, a.alg}, nfRow(g, g.AvgOverOK("stab"))...)
	},
}

// e5Spec exercises Theorem 5.8: the same extraction algorithm, run with a D
// that solves uniform consensus, emits a valid Σ history (uniform
// intersection over all processes' outputs, not just correct ones).
var e5Spec = &Spec{
	ID:    "E5",
	Title: "T_{D→Σν} extracts Σ when D solves uniform consensus",
	Claim: "Theorem 5.8: with D = (Ω, Σ) and A = MR-Σ (uniform consensus), the " +
		"extractor's outputs satisfy Σ's uniform intersection and completeness.",
	Columns: []string{"n", "f", "runs", "ok", "avg stabilization t"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, min(sc.Seeds, 2), []int{3, 4}, func(n int) []int { return []int{1, n - 1} })
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		pattern := randomPattern(cfg.N, cfg.F, 40, rng)
		return fdRun{aut: transform.NewSigmaNuExtractor(cfg.N, mrSigma.build, 1), pattern: pattern,
			hist: mrSigma.hist(pattern, 40, cfg.Seed), steps: extractionBudget(cfg.N), spec: check.Sigma}.unit(cfg)
	},
	Row: stabRow,
}

// q3Spec measures extraction convergence: how long until T_{D→Σν}'s emitted
// quorums contain only correct processes, and how large the sample DAG and
// the canonical path grow.
var q3Spec = &Spec{
	ID:    "Q3",
	Title: "Extraction convergence and DAG growth vs n",
	Claim: "§4–5: the emulation stabilizes once the fresh subgraph contains " +
		"deciding simulated schedules of correct processes only; cost grows " +
		"quadratically with the sample DAG.",
	Columns: []string{"n", "f", "first correct-only output t", "stabilization t", "steps run"},
	Configs: func(_ Scale) []Config {
		return grid(Config{}, 1, []int{3, 4, 5}, func(int) []int { return []int{1} })
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		var u UnitResult
		pattern := randomPattern(cfg.N, cfg.F, 40, rng)
		// Q3 charts convergence itself, so it gets a longer budget than the
		// pass/fail extraction checks.
		outs, stab, end, err := fdRun{aut: transform.NewSigmaNuExtractor(cfg.N, aNuc.build, 1), pattern: pattern,
			hist: aNuc.hist(pattern, 40, cfg.Seed), steps: 400 + 300*cfg.N}.run(cfg.Seed)
		if err != nil {
			u.failf("%v: %v", cfg, err)
			return u
		}
		firstCorrect := model.Time(-1)
		correct := pattern.Correct()
		for _, s := range outs {
			q, _ := fd.QuorumOf(s.Val)
			if correct.Has(s.P) && q.SubsetOf(correct) {
				firstCorrect = s.T
				break
			}
		}
		if firstCorrect < 0 || stab > end*4/5 {
			u.failf("%v: first correct-only output at %d, unsettled until %d of %d", cfg, firstCorrect, stab, end)
		} else {
			u.OK = true
		}
		u.Cells = []string{itoa(cfg.N), itoa(cfg.F),
			fmt.Sprintf("%d", firstCorrect), fmt.Sprintf("%d", stab), fmt.Sprintf("%d", end)}
		return u
	},
	Row: unitRow,
}
