package experiments

import (
	"math/rand"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
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
		var cfgs []Config
		for _, n := range []int{3, 5, 8} {
			fs := []int{1}
			if mid := (n - 1) / 2; mid != 1 {
				fs = append(fs, mid)
			}
			for _, f := range fs {
				cfgs = append(cfgs, seedRange(Config{N: n, F: f}, sc.Seeds)...)
			}
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		u := UnitResult{Counted: true}
		n, f, seed := cfg.N, cfg.F, cfg.Seed
		pattern := model.NewFailurePattern(n)
		for i := 0; i < f; i++ {
			pattern.SetCrash(model.ProcessID(i), model.Time(30+20*i))
		}
		col := obs.NewCollector(obs.KindFDOutput)
		res, err := sim.Run(sim.Exec{
			Automaton: hb.NewOmega(n, 0, 0),
			Pattern:   pattern,
			History:   fd.Null,
			Scheduler: &sim.PartialSyncScheduler{
				GST:    300,
				Before: sim.NewFairScheduler(seed, 0.2, 20),
				After:  sim.NewFairScheduler(seed+99, 0.9, 2),
			},
			MaxSteps: 2500,
			Bus:      obs.NewBus(nil, nil, col),
		})
		if err != nil {
			u.Fail = true
			return u
		}
		outs := check.History(col.Events(), res.Ticks)
		stab := leaderHorizon(outs, pattern)
		if stab > res.Ticks*4/5 {
			u.failf("n=%d f=%d seed=%d: leader unstable until %d of %d", n, f, seed, stab, res.Ticks)
			return u
		}
		if err := check.OmegaOutputs(outs, pattern, stab); err != nil {
			u.failf("n=%d f=%d seed=%d: %v", n, f, seed, err)
			return u
		}
		u.OK = true
		if stab > 0 {
			u.Add("stab", int(stab))
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa(g.Key.F), "300",
			itoa(g.Runs()), itoa(g.OKs()), g.AvgOverOK("stab")}
	},
}

// leaderHorizon returns the last time a correct process's emitted leader
// differed from the eventual leader (min correct), or -1.
func leaderHorizon(outs []check.Sample, pattern *model.FailurePattern) model.Time {
	correct := pattern.Correct()
	leader := correct.Min()
	last := model.Time(-1)
	for _, s := range outs {
		if !correct.Has(s.P) {
			continue
		}
		if l, ok := fd.LeaderOf(s.Val); ok && l != leader && s.T > last {
			last = s.T
		}
	}
	return last
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
		var cfgs []Config
		for _, n := range []int{3, 5, 7} {
			tf := (n - 1) / 2
			for _, f := range []int{0, tf} {
				cfgs = append(cfgs, seedRange(Config{N: n, F: f}, sc.Seeds)...)
			}
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		u := UnitResult{Counted: true}
		n, f, seed := cfg.N, cfg.F, cfg.Seed
		tf := (n - 1) / 2
		pattern := model.NewFailurePattern(n)
		for i := 0; i < f; i++ {
			pattern.SetCrash(model.ProcessID(i), model.Time(40+25*i))
		}
		props := make([]int, n)
		for i := range props {
			props[i] = i % 2
		}
		aut := transform.NewOracleFree(
			hb.NewOmega(n, 0, 0),
			transform.NewScratchSigmaNuPlus(n, tf),
			consensus.NewANuc(props),
		)
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   fd.Null,
			Scheduler: &sim.PartialSyncScheduler{
				GST:    250,
				Before: sim.NewFairScheduler(seed, 0.3, 10),
				After:  sim.NewFairScheduler(seed+99, 0.9, 2),
			},
			MaxSteps: sc.MaxSteps,
			StopWhen: substrate.AllCorrectDecided(pattern),
		})
		if err != nil || !res.Stopped {
			u.failf("n=%d f=%d seed=%d: err=%v stopped=%v", n, f, seed, err, res != nil && res.Stopped)
			return u
		}
		if err := check.OutcomeFromConfig(res.Config).NonuniformConsensus(pattern); err != nil {
			u.failf("n=%d f=%d seed=%d: %v", n, f, seed, err)
			return u
		}
		u.OK = true
		u.Add("steps", res.Steps)
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa(g.Key.F), itoa(g.Runs()),
			itoa(g.OKs()), g.AvgOverOK("steps")}
	},
}
