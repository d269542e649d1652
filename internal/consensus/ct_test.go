package consensus_test

import (
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/transform"
)

// TestCTUniformConsensus: the Chandra–Toueg algorithm solves uniform
// consensus with ◇S and a correct majority, across failure counts and
// seeds.
func TestCTUniformConsensus(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		maxF := (n - 1) / 2
		for f := 0; f <= maxF; f++ {
			for seed := int64(1); seed <= 3; seed++ {
				pattern := model.NewFailurePattern(n)
				for i := 0; i < f; i++ {
					pattern.SetCrash(model.ProcessID(i), model.Time(10+13*i))
				}
				props := make([]int, n)
				for i := range props {
					props[i] = i % 2
				}
				res, err := sim.Run(sim.Exec{
					Automaton: consensus.NewCT(props),
					Pattern:   pattern,
					History:   fd.NewSuspicion(pattern, 90, seed),
					Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
					MaxSteps:  30000,
					StopWhen:  substrate.AllCorrectDecided(pattern),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Stopped {
					t.Fatalf("n=%d f=%d seed=%d: no decision", n, f, seed)
				}
				if err := check.OutcomeFromConfig(res.Config).UniformConsensus(pattern); err != nil {
					t.Fatalf("n=%d f=%d seed=%d: %v", n, f, seed, err)
				}
			}
		}
	}
}

// TestCTWithHeartbeatSuspector composes CT with the heartbeat ◇P via the
// generic transform.NewFeed stack — a fully oracle-free *uniform* consensus stack
// under partial synchrony (complementing the nonuniform oracle-free stack
// of E12).
func TestCTWithHeartbeatSuspector(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n := 5
		pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 60, 4: 110})
		aut := transform.NewFeed(
			hb.NewSuspector(n, 0, 0),
			consensus.NewCT([]int{0, 1, 0, 1, 0}),
			func(pl model.Payload) bool { _, ok := pl.(hb.HeartbeatPayload); return ok },
		)
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   fd.Null,
			Scheduler: &sim.PartialSyncScheduler{
				GST:    300,
				Before: sim.NewFairScheduler(seed, 0.3, 10),
				After:  sim.NewFairScheduler(seed+50, 0.9, 2),
			},
			MaxSteps: 60000,
			StopWhen: substrate.AllCorrectDecided(pattern),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatalf("seed=%d: oracle-free CT did not decide in %d steps", seed, res.Steps)
		}
		if err := check.OutcomeFromConfig(res.Config).UniformConsensus(pattern); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestCTBlocksWithoutMajority: with f ≥ n/2 the algorithm cannot gather
// majorities and must not decide.
func TestCTBlocksWithoutMajority(t *testing.T) {
	pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{2: 1, 3: 1})
	res, err := sim.Run(sim.Exec{
		Automaton: consensus.NewCT([]int{0, 1, 0, 1}),
		Pattern:   pattern,
		History:   fd.NewSuspicion(pattern, 30, 1),
		Scheduler: sim.NewFairScheduler(1, 0.8, 3),
		MaxSteps:  4000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped || len(substrate.Decisions(res.Config)) != 0 {
		t.Fatalf("CT decided without a correct majority: %v", substrate.Decisions(res.Config))
	}
}

// TestCTSafetyFuzz: uniform agreement and validity must hold in every
// bounded execution regardless of decisions.
func TestCTSafetyFuzz(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		pattern := model.PatternFromCrashes(5, map[model.ProcessID]model.Time{
			model.ProcessID(seed % 5): model.Time(5 + seed%40),
		})
		res, err := sim.Run(sim.Exec{
			Automaton: consensus.NewCT([]int{1, 2, 3, 4, 5}),
			Pattern:   pattern,
			History:   fd.NewSuspicion(pattern, 60, seed),
			Scheduler: sim.NewFairScheduler(seed, 0.7, 4),
			MaxSteps:  500,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := check.OutcomeFromConfig(res.Config)
		if err := out.Validity(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := out.UniformAgreement(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}
