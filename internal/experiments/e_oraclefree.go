package experiments

import (
	"math/rand"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/transform"
)

// e11Spec exercises the heartbeat implementation of Ω (internal/hb): under
// partial synchrony — including a hostile pre-GST prefix — the emitted
// leader history satisfies the Ω specification.
var e11Spec = &Spec{
	ID:    "E11",
	Title: "Heartbeat Ω under partial synchrony (extension)",
	Claim: "Ω is implementable without oracles given eventual timeliness: " +
		"adaptive-timeout heartbeats converge on the smallest correct process " +
		"at all correct processes.",
	Columns: []string{"n", "f", "GST", "runs", "ok", "avg leader-stable t"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 5, 8}, func(n int) []int {
			if mid := (n - 1) / 2; mid != 1 {
				return []int{1, mid}
			}
			return []int{1}
		})
	},
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		pattern := staggered(cfg.N, cfg.F, true, 30, 20)
		leader := pattern.Correct().Min()
		return fdRun{aut: hb.NewOmega(cfg.N, 0, 0), pattern: pattern, hist: fd.Null,
			sched: partialSync(300, cfg.Seed, 0.2, 20), steps: 2500,
			horizon: lastDeviation(func(v model.FDValue) bool {
				l, ok := fd.LeaderOf(v)
				return ok && l != leader
			}),
			spec: check.OmegaOutputs,
		}.unit(cfg)
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa(g.Key.F), "300",
			itoa(g.Runs()), itoa(g.OKs()), g.AvgOverOK("stab")}
	},
}

// e12Spec exercises the oracle-free stack: heartbeat Ω + from-scratch Σν+
// + A_nuc solves nonuniform consensus with no failure detector in
// majority-correct environments under partial synchrony.
var e12Spec = &Spec{
	ID:    "E12",
	Title: "Oracle-free nonuniform consensus (extension)",
	Claim: "With a correct majority and eventual timeliness, the weakest-detector " +
		"pair (Ω, Σν+) is constructible from scratch, so A_nuc runs with zero " +
		"oracles (heartbeats + Theorem 7.1 IF threshold quorums).",
	Columns: []string{"n", "f", "runs", "ok", "avg steps"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 5, 7}, func(n int) []int { return []int{0, (n - 1) / 2} })
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		n := cfg.N
		pattern := staggered(n, cfg.F, true, 40, 25)
		props := make([]int, n)
		for i := range props {
			props[i] = i % 2
		}
		aut := transform.NewOracleFree(
			hb.NewOmega(n, 0, 0),
			transform.NewScratchSigmaNuPlus(n, (n-1)/2),
			consensus.NewANuc(props),
		)
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   fd.Null,
			Scheduler: partialSync(250, cfg.Seed, 0.3, 10),
			MaxSteps:  sc.MaxSteps,
			StopWhen:  substrate.AllCorrectDecided(pattern),
		})
		if err != nil || !res.Stopped {
			u.failf("%v: err=%v stopped=%v", cfg, err, res != nil && res.Stopped)
			return u
		}
		if err := check.OutcomeFromConfig(res.Config).NonuniformConsensus(pattern); err != nil {
			u.failf("%v: %v", cfg, err)
			return u
		}
		u.OK = true
		u.Add("steps", res.Steps)
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return nfRow(g, g.AvgOverOK("steps"))
	},
}
