package consensus_test

import (
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// TestANucSmoke runs A_nuc on a small crashy system under a fair scheduler
// and checks nonuniform consensus end to end.
func TestANucSmoke(t *testing.T) {
	n := 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{3: 40})
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 60, 7),
		Second: fd.NewSigmaNuPlus(pattern, 60, 7),
	}
	aut := consensus.NewANuc([]int{0, 1, 1, 0})
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(1, 0.8, 3),
		MaxSteps:  20000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("not all correct processes decided within %d steps (sent=%d)", res.Steps, res.MessagesSent)
	}
	out := check.OutcomeFromConfig(res.Config)
	if err := out.NonuniformConsensus(pattern); err != nil {
		t.Fatal(err)
	}
	t.Logf("decided %v after %d steps, sent=%d", out.Decisions, res.Steps, res.MessagesSent)
}
