package transform_test

import (
	"testing"

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

func oracleFreeANuc(proposals []int, t int) model.Automaton {
	n := len(proposals)
	return transform.NewOracleFree(
		hb.NewOmega(n, 0, 0),
		transform.NewScratchSigmaNuPlus(n, t),
		consensus.NewANuc(proposals),
	)
}

// TestOracleFreeConsensus is the capstone integration: heartbeat Ω +
// from-scratch Σν+ + A_nuc solves nonuniform consensus with no failure
// detector at all, in a majority-correct environment, even through a
// hostile partial-synchrony prefix.
func TestOracleFreeConsensus(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n, tf := 5, 2
		pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 50, 3: 90})
		sched := &sim.PartialSyncScheduler{
			GST:    300,
			Before: sim.NewFairScheduler(seed, 0.3, 10),
			After:  sim.NewFairScheduler(seed+100, 0.9, 2),
		}
		col := obs.NewCollector(obs.KindFDOutput)
		res, err := sim.Run(sim.Exec{
			Automaton: oracleFreeANuc([]int{0, 1, 0, 1, 0}, tf),
			Pattern:   pattern,
			History:   fd.Null,
			Scheduler: sched,
			MaxSteps:  60000,
			StopWhen:  substrate.AllCorrectDecided(pattern),
			Bus:       obs.NewBus(nil, nil, col),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatalf("seed=%d: no decision within %d steps", seed, res.Steps)
		}
		if err := check.OutcomeFromConfig(res.Config).NonuniformConsensus(pattern); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		// The assembled detector pair the consumer saw satisfies both specs.
		outs := check.History(col.Events(), res.Ticks)
		horizon, herr := check.LastCompletenessViolation(outs, pattern)
		if herr != nil {
			t.Fatal(herr)
		}
		if err := check.SigmaNuPlus(outs, pattern, horizon); err != nil {
			t.Fatalf("seed=%d: assembled Σν+ invalid: %v", seed, err)
		}
	}
}

// TestScratchSigmaNuPlusSpec validates the from-scratch Σν+ directly.
func TestScratchSigmaNuPlusSpec(t *testing.T) {
	n, tf := 5, 2
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{0: 20, 4: 40})
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton: transform.NewScratchSigmaNuPlus(n, tf),
		Pattern:   pattern,
		History:   fd.Null,
		Scheduler: sim.NewFairScheduler(2, 0.8, 3),
		MaxSteps:  800,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := check.History(col.Events(), res.Ticks)
	horizon, herr := check.LastCompletenessViolation(outs, pattern)
	if herr != nil || horizon > res.Ticks*4/5 {
		t.Fatalf("no stabilization: %d of %d (%v)", horizon, res.Ticks, herr)
	}
	if err := check.SigmaNuPlus(outs, pattern, horizon); err != nil {
		t.Fatalf("from-scratch Σν+ violates spec: %v", err)
	}
}
