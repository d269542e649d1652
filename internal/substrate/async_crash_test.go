package substrate_test

import (
	"context"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/transform"
)

// TestCrashedProcessesStopStepping: no recorded step by a crashed process
// may carry a time at or after its crash (run property (3)), and the tick
// on which a process discovers its crash is not a step. Nor are the ticks
// on which each process discovers the budget is spent: they may not push
// Ticks past the budget or make an exhausted run look stopped. (The clock
// used to be reported as both: with one crash, Steps=3001 Ticks=3001 against
// 2999 observed steps.)
func TestCrashedProcessesStopStepping(t *testing.T) {
	crashes := map[model.ProcessID]model.Time{1: 60, 2: 120}
	pattern := model.PatternFromCrashes(4, crashes)
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 200, 5),
		Second: fd.NewSigmaNuPlus(pattern, 200, 5),
	}
	const budget = 3000
	steps, reg := obs.NewCollector(obs.KindStep), obs.NewRegistry()
	res, err := async.Run(context.Background(), consensus.NewANuc([]int{0, 1, 0, 1}), hist, pattern, substrate.Options{
		Seed:     5,
		MaxSteps: budget,
		Bus:      obs.NewBus(nil, reg, steps),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps.Events() {
		if pattern.Crashed(s.P, s.T) {
			t.Fatalf("crashed %v took a step at t=%d", s.P, s.T)
		}
	}
	// Every tick of the budget went to a step or to one crash discovery.
	if want, bus := budget-len(crashes), int(reg.Counter("bus.steps").Value()); res.Steps != want || bus != want {
		t.Errorf("Steps=%d, bus.steps=%d, want both %d", res.Steps, bus, want)
	}
	if res.Ticks != budget {
		t.Errorf("Ticks=%d, want the budget %d", res.Ticks, budget)
	}
	if res.Stopped {
		t.Error("Stopped=true on a run that exhausted its budget with no stop condition set")
	}
}

// TestRuntimeValidation covers the error paths.
func TestRuntimeValidation(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	hist := fd.NewOmega(pattern, 0, 1)
	aut := consensus.NewMRMajority([]int{0, 1, 1})
	ctx := context.Background()
	ten := substrate.Options{MaxSteps: 10}
	cases := []func() error{
		func() error { _, err := async.Run(ctx, nil, hist, pattern, ten); return err },
		func() error { _, err := async.Run(ctx, aut, hist, nil, ten); return err },
		func() error { _, err := async.Run(ctx, aut, hist, pattern, substrate.Options{}); return err },
		func() error {
			_, err := async.Run(ctx, aut, hist, model.NewFailurePattern(4), ten)
			return err
		},
	}
	for i, run := range cases {
		if run() == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestRuntimeTransformerEmulation runs T_{Σν→Σν+} on the concurrent
// runtime and validates the emulated history — the necessity machinery
// works outside the deterministic simulator too.
func TestRuntimeTransformerEmulation(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{1: 60})
	hist := fd.NewSigmaNu(pattern, 150, 3)
	outputs := obs.NewCollector(obs.KindFDOutput)
	res, err := async.Run(context.Background(), transform.NewSigmaNuPlusTransformer(3), hist, pattern, substrate.Options{
		Seed:     3,
		MaxSteps: 900,
		Bus:      obs.NewBus(nil, nil, outputs),
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := check.History(outputs.Events(), res.Ticks)
	horizon, herr := check.LastCompletenessViolation(outs, pattern)
	if herr != nil {
		t.Fatal(herr)
	}
	if horizon > res.Ticks*4/5 {
		t.Fatalf("emulation did not stabilize (horizon %d of %d)", horizon, res.Ticks)
	}
	if err := check.SigmaNuPlus(outs, pattern, horizon); err != nil {
		t.Fatalf("emulated Σν+ invalid on the runtime: %v", err)
	}
}

// TestRuntimeSafetyAcrossSeeds: agreement and validity must hold for every
// interleaving the concurrent runtime produces.
func TestRuntimeSafetyAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{3: 50})
		hist := fd.PairHistory{
			First:  fd.NewOmega(pattern, 150, seed),
			Second: fd.NewSigmaNuPlus(pattern, 150, seed),
		}
		res, err := async.Run(context.Background(), consensus.NewANuc([]int{1, 0, 1, 0}), hist, pattern, substrate.Options{
			Seed:            seed,
			MaxSteps:        100000,
			StopWhenDecided: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := check.OutcomeFromConfig(res.Config)
		if err := out.Validity(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := out.NonuniformAgreement(pattern); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}
