package experiments

import (
	"fmt"
	"math/rand"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/transform"
)

// runTransformer drives a transformation automaton and returns the recorded
// output samples plus their stabilization time.
func runTransformer(aut model.Automaton, pattern *model.FailurePattern, hist model.History, seed int64, maxSteps int) ([]check.Sample, model.Time, model.Time, error) {
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  maxSteps,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	outs := check.History(col.Events(), res.Ticks)
	horizon, herr := check.LastCompletenessViolation(outs, pattern)
	if herr != nil {
		return nil, 0, 0, herr
	}
	return outs, horizon, res.Ticks, nil
}

// extractionBudget scales the step budget of DAG-extraction runs with n:
// the canonical path must be long enough for the simulated target algorithm
// to decide several times over, and decisions take more simulated steps at
// larger n.
func extractionBudget(n int) int { return 300 + 200*n }

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
		seeds := min(sc.Seeds, 3)
		var cfgs []Config
		for _, n := range []int{3, 4, 5, 6} {
			for _, f := range []int{0, 1, n - 1} {
				cfgs = append(cfgs, seedRange(Config{N: n, F: f}, seeds)...)
			}
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		u := UnitResult{Counted: true}
		n, f := cfg.N, cfg.F
		pattern := randomPattern(n, f, 50, rng)
		hist := fd.NewSigmaNu(pattern, 90, cfg.Seed)
		aut := transform.NewSigmaNuPlusTransformer(n)
		outs, stab, end, err := runTransformer(aut, pattern, hist, cfg.Seed, 500)
		switch {
		case err != nil:
			u.failf("n=%d f=%d seed=%d: %v", n, f, cfg.Seed, err)
		case stab > end*4/5:
			u.failf("n=%d f=%d seed=%d: never stabilized", n, f, cfg.Seed)
		case check.SigmaNuPlus(outs, pattern, stab) != nil:
			u.failf("n=%d f=%d seed=%d: %v", n, f, cfg.Seed, check.SigmaNuPlus(outs, pattern, stab))
		default:
			u.OK = true
			if stab > 0 {
				u.Add("stab", int(stab))
			}
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa(g.Key.F), itoa(g.Runs()), itoa(g.OKs()),
			g.AvgOverOK("stab")}
	},
}

// e4Combo is one (D, A) pair exercised by E4.
type e4Combo struct {
	dName, aName string
	hist         func(*model.FailurePattern, int64) model.History
	target       func([]int) model.Automaton
}

var e4Combos = []e4Combo{
	{
		dName: "(Ω,Σν+)", aName: "A_nuc",
		hist: func(p *model.FailurePattern, seed int64) model.History {
			return fd.PairHistory{First: fd.NewOmega(p, 40, seed), Second: fd.NewSigmaNuPlus(p, 40, seed)}
		},
		target: func(props []int) model.Automaton { return consensus.NewANuc(props) },
	},
	{
		dName: "(Ω,Σ)", aName: "MR-Σ",
		hist: func(p *model.FailurePattern, seed int64) model.History {
			return fd.PairHistory{First: fd.NewOmega(p, 40, seed), Second: fd.NewSigma(p, 40, seed)}
		},
		target: func(props []int) model.Automaton { return consensus.NewMRSigma(props) },
	},
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
		seeds := min(sc.Seeds, 2)
		var cfgs []Config
		for i, cb := range e4Combos {
			for _, n := range []int{3, 4} {
				for _, f := range []int{1, n - 1} {
					cfgs = append(cfgs, seedRange(Config{Label: cb.dName, Arg: i, N: n, F: f}, seeds)...)
				}
			}
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		u := UnitResult{Counted: true}
		cb := e4Combos[cfg.Arg]
		n, f := cfg.N, cfg.F
		pattern := randomPattern(n, f, 40, rng)
		aut := transform.NewSigmaNuExtractor(n, cb.target, 1)
		outs, stab, end, err := runTransformer(aut, pattern, cb.hist(pattern, cfg.Seed), cfg.Seed, extractionBudget(n))
		switch {
		case err != nil:
			u.failf("%s n=%d f=%d seed=%d: %v", cb.dName, n, f, cfg.Seed, err)
		case stab > end*4/5:
			u.failf("%s n=%d f=%d seed=%d: never stabilized", cb.dName, n, f, cfg.Seed)
		case check.SigmaNu(outs, pattern, stab) != nil:
			u.failf("%s n=%d f=%d seed=%d: %v", cb.dName, n, f, cfg.Seed, check.SigmaNu(outs, pattern, stab))
		default:
			u.OK = true
			u.Add("stab", int(stab))
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		cb := e4Combos[g.Key.Arg]
		return []string{cb.dName, cb.aName, itoa(g.Key.N), itoa(g.Key.F),
			itoa(g.Runs()), itoa(g.OKs()), g.AvgOverOK("stab")}
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
		seeds := min(sc.Seeds, 2)
		var cfgs []Config
		for _, n := range []int{3, 4} {
			for _, f := range []int{1, n - 1} {
				cfgs = append(cfgs, seedRange(Config{N: n, F: f}, seeds)...)
			}
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		u := UnitResult{Counted: true}
		n, f := cfg.N, cfg.F
		pattern := randomPattern(n, f, 40, rng)
		hist := fd.PairHistory{First: fd.NewOmega(pattern, 40, cfg.Seed), Second: fd.NewSigma(pattern, 40, cfg.Seed)}
		aut := transform.NewSigmaNuExtractor(n, func(props []int) model.Automaton { return consensus.NewMRSigma(props) }, 1)
		outs, stab, end, err := runTransformer(aut, pattern, hist, cfg.Seed, extractionBudget(n))
		switch {
		case err != nil:
			u.failf("n=%d f=%d seed=%d: %v", n, f, cfg.Seed, err)
		case stab > end*4/5:
			u.failf("n=%d f=%d seed=%d: never stabilized", n, f, cfg.Seed)
		case check.Sigma(outs, pattern, stab) != nil:
			u.failf("n=%d f=%d seed=%d: %v", n, f, cfg.Seed, check.Sigma(outs, pattern, stab))
		default:
			u.OK = true
			if stab > 0 {
				u.Add("stab", int(stab))
			}
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa(g.Key.F), itoa(g.Runs()), itoa(g.OKs()),
			g.AvgOverOK("stab")}
	},
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
		var cfgs []Config
		for _, n := range []int{3, 4, 5} {
			cfgs = append(cfgs, Config{N: n, F: 1, Seed: 1})
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		u := UnitResult{Counted: true}
		n, f := cfg.N, cfg.F
		pattern := randomPattern(n, f, 40, rng)
		hist := fd.PairHistory{First: fd.NewOmega(pattern, 40, cfg.Seed), Second: fd.NewSigmaNuPlus(pattern, 40, cfg.Seed)}
		aut := transform.NewSigmaNuExtractor(n, func(props []int) model.Automaton { return consensus.NewANuc(props) }, 1)
		// Q3 charts convergence itself, so it gets a longer budget than the
		// pass/fail extraction checks.
		outs, stab, end, err := runTransformer(aut, pattern, hist, cfg.Seed, 400+300*n)
		if err != nil {
			u.failf("n=%d: %v", n, err)
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
			u.Fail = true
		} else {
			u.OK = true
		}
		u.Cells = []string{itoa(n), itoa(f),
			fmt.Sprintf("%d", firstCorrect), fmt.Sprintf("%d", stab), fmt.Sprintf("%d", end)}
		return u
	},
}
