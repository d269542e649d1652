package transform_test

import (
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/transform"
)

func TestSigmaNuPlusTransformerSmoke(t *testing.T) {
	n := 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 30})
	hist := fd.NewSigmaNu(pattern, 80, 3)
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton: transform.NewSigmaNuPlusTransformer(n),
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(2, 0.8, 3),
		MaxSteps:  400,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := check.History(col.Events(), res.Ticks)
	horizon, herr := check.LastCompletenessViolation(outs, pattern)
	if herr != nil || horizon > res.Ticks*4/5 {
		t.Fatalf("emulated Σν+ never stabilized (last completeness violation at %d of %d, %v)", horizon, res.Ticks, herr)
	}
	if err := check.SigmaNuPlus(outs, pattern, horizon); err != nil {
		t.Fatalf("emulated Σν+ violates spec: %v", err)
	}
	t.Logf("ok after %d steps, stabilized at %d, %d output samples", res.Steps, horizon, len(outs))
}

func TestSigmaNuExtractorSmoke(t *testing.T) {
	n := 3
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{2: 30})
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 60, 5),
		Second: fd.NewSigmaNuPlus(pattern, 60, 5),
	}
	target := func(proposals []int) model.Automaton { return consensus.NewANuc(proposals) }
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton: transform.NewSigmaNuExtractor(n, target, 1),
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(4, 0.8, 3),
		MaxSteps:  500,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := check.History(col.Events(), res.Ticks)
	horizon, herr := check.LastCompletenessViolation(outs, pattern)
	if herr != nil || horizon > res.Ticks*4/5 {
		t.Fatalf("emulated Σν never stabilized (last completeness violation at %d of %d, %v)", horizon, res.Ticks, herr)
	}
	if err := check.SigmaNu(outs, pattern, horizon); err != nil {
		t.Fatalf("emulated Σν violates spec: %v", err)
	}
	// The emulation is only meaningful if quorums actually tightened from Π.
	tightened := false
	for _, s := range outs {
		if q, _ := fd.QuorumOf(s.Val); q != pattern.All() {
			tightened = true
			break
		}
	}
	if !tightened {
		t.Fatal("extractor never updated its output from Π — the schedule search found no decisions")
	}
	t.Logf("ok after %d steps, %d output samples", res.Steps, len(outs))
}

func TestComposedANucOverSigmaNuSmoke(t *testing.T) {
	n := 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{0: 40})
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 80, 9),
		Second: fd.NewSigmaNu(pattern, 80, 9),
	}
	aut := transform.NewComposed(
		transform.NewSigmaNuPlusTransformer(n),
		consensus.NewANuc([]int{3, 7, 7, 3}),
	)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(6, 0.8, 3),
		MaxSteps:  3000,
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
	t.Logf("decided %v after %d steps", out.Decisions, res.Steps)
}

func TestScratchSigmaSmoke(t *testing.T) {
	n, tFaults := 5, 2
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 20, 4: 35})
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton: transform.NewScratchSigma(n, tFaults),
		Pattern:   pattern,
		History:   fd.Null,
		Scheduler: sim.NewFairScheduler(8, 0.8, 3),
		MaxSteps:  600,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := check.History(col.Events(), res.Ticks)
	if err := check.Sigma(outs, pattern, res.Ticks*3/4); err != nil {
		t.Fatalf("from-scratch Σ violates spec: %v", err)
	}
	t.Logf("ok after %d steps", res.Steps)
}
