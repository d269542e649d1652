package hb_test

import (
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
)

// runHB drives the heartbeat Ω and returns recorded emulated outputs.
func runHB(t *testing.T, pattern *model.FailurePattern, sched sim.Scheduler, steps int) ([]check.Sample, model.Time) {
	t.Helper()
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton: hb.NewOmega(pattern.N(), 0, 0),
		Pattern:   pattern,
		History:   fd.Null,
		Scheduler: sched,
		MaxSteps:  steps,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}
	return check.History(col.Events(), res.Ticks), res.Ticks
}

// omegaHorizon finds the last time a correct process's emitted leader was
// not the eventual common correct leader, analogous to
// check.LastCompletenessViolation for quorums.
func omegaHorizon(t *testing.T, outs []check.Sample, pattern *model.FailurePattern) model.Time {
	t.Helper()
	ls, err := check.LeaderSamples(outs)
	if err != nil {
		t.Fatal(err)
	}
	correct := pattern.Correct()
	// The heartbeat algorithm elects the smallest unsuspected process, so
	// the eventual leader is min(correct).
	leader := correct.Min()
	last := model.Time(-1)
	for _, s := range ls {
		if correct.Has(s.P) && s.L != leader && s.T > last {
			last = s.T
		}
	}
	return last
}

func TestHeartbeatOmegaFairScheduler(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{0: 60, 2: 100})
		outs, end := runHB(t, pattern, sim.NewFairScheduler(seed, 0.8, 3), 1600)
		horizon := omegaHorizon(t, outs, pattern)
		if horizon > end*4/5 {
			t.Fatalf("seed=%d: leader did not stabilize (last deviation %d of %d)", seed, horizon, end)
		}
		if err := check.OmegaOutputs(outs, pattern, horizon); err != nil {
			t.Fatalf("seed=%d: emitted history violates Ω: %v", seed, err)
		}
	}
}

func TestHeartbeatOmegaPartialSynchrony(t *testing.T) {
	// Hostile prefix: starve delivery entirely before GST; timely afterwards.
	pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{0: 150})
	sched := &sim.PartialSyncScheduler{
		GST:    400,
		Before: sim.NewFairScheduler(1, 0.05, 50), // long delays, false suspicion galore
		After:  &sim.RoundRobinScheduler{},
	}
	outs, end := runHB(t, pattern, sched, 3000)
	horizon := omegaHorizon(t, outs, pattern)
	if horizon > end*9/10 {
		t.Fatalf("leader did not stabilize after GST (last deviation %d of %d)", horizon, end)
	}
	if err := check.OmegaOutputs(outs, pattern, horizon); err != nil {
		t.Fatalf("emitted history violates Ω: %v", err)
	}
}

func TestHeartbeatSuspectsExposed(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 30})
	res, err := sim.Run(sim.Exec{
		Automaton: hb.NewOmega(3, 0, 0),
		Pattern:   pattern,
		History:   fd.Null,
		Scheduler: &sim.RoundRobinScheduler{},
		MaxSteps:  900,
	})
	if err != nil {
		t.Fatal(err)
	}
	sus := res.Config.States[0].(hb.SuspectHolder).Suspects()
	if !sus.Has(2) {
		t.Errorf("p0 should suspect crashed p2, suspects %v", sus)
	}
	if sus.Has(1) {
		t.Errorf("p0 must not suspect correct p1 after stabilization, suspects %v", sus)
	}
}

func TestHeartbeatPayloadSupersedes(t *testing.T) {
	var pl model.Payload = hb.HeartbeatPayload{}
	if _, ok := pl.(model.SupersededPayload); !ok {
		t.Error("heartbeats must supersede older ones")
	}
}
