package sim_test

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

func checkOutcome(c *model.Configuration) check.ConsensusOutcome {
	return check.OutcomeFromConfig(c)
}

func anucSetup(n int, crashes map[model.ProcessID]model.Time, seed int64) (model.Automaton, *model.FailurePattern, model.History) {
	pattern := model.PatternFromCrashes(n, crashes)
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 80, seed),
		Second: fd.NewSigmaNuPlus(pattern, 80, seed),
	}
	props := make([]int, n)
	for i := range props {
		props[i] = i % 2
	}
	return consensus.NewANuc(props), pattern, hist
}

func TestRunValidatesOptions(t *testing.T) {
	aut, pattern, hist := anucSetup(3, nil, 1)
	cases := []struct {
		name string
		opts sim.Exec
	}{
		{"missing automaton", sim.Exec{Pattern: pattern, History: hist, Scheduler: sim.NewFairScheduler(1, 0, 0), MaxSteps: 10}},
		{"missing steps", sim.Exec{Automaton: aut, Pattern: pattern, History: hist, Scheduler: sim.NewFairScheduler(1, 0, 0)}},
		{"size mismatch", sim.Exec{Automaton: aut, Pattern: model.NewFailurePattern(4), History: hist, Scheduler: sim.NewFairScheduler(1, 0, 0), MaxSteps: 10}},
	}
	for _, tc := range cases {
		if _, err := sim.Run(tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestSimulatedExecutionIsARun is the key soundness check of the simulator:
// the schedule it produces, together with the times and history, satisfies
// the run properties (1)–(5) of §2.6.
func TestSimulatedExecutionIsARun(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		aut, pattern, hist := anucSetup(4, map[model.ProcessID]model.Time{2: 30}, seed)
		res, err := sim.Run(sim.Exec{
			Automaton:    aut,
			Pattern:      pattern,
			History:      hist,
			Scheduler:    sim.NewFairScheduler(seed, 0.7, 3),
			MaxSteps:     200,
			KeepSchedule: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		run := &model.Run{
			Automaton: aut,
			Pattern:   pattern,
			History:   hist,
			Schedule:  res.Schedule,
			Times:     res.Times,
		}
		if err := run.Validate(); err != nil {
			t.Fatalf("seed %d: simulator produced an invalid run: %v", seed, err)
		}
	}
}

// TestFairSchedulerAdmissibility checks the two admissibility properties on
// a long finite run: every correct process takes many steps, and no message
// to a correct process is stuck while younger ones are delivered (oldest-
// first with forced delivery).
func TestFairSchedulerAdmissibility(t *testing.T) {
	aut, pattern, hist := anucSetup(4, map[model.ProcessID]model.Time{1: 25}, 3)
	col := obs.NewCollector(obs.KindStep)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(3, 0.5, 4),
		MaxSteps:  400,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := map[model.ProcessID]int{}
	for _, s := range col.Events() {
		steps[s.P]++
	}
	pattern.Correct().ForEach(func(p model.ProcessID) {
		if steps[p] < 50 {
			t.Errorf("correct %v took only %d steps in 400", p, steps[p])
		}
	})
	// Pending messages to correct processes are bounded-stale: with A_nuc's
	// round structure everything older than the current round gets consumed;
	// here we simply require the buffer not to grow without bound.
	if res.Config.Buffer.Len() > 400 {
		t.Errorf("buffer grew to %d messages", res.Config.Buffer.Len())
	}
}

func TestStopWhenFires(t *testing.T) {
	aut, pattern, hist := anucSetup(3, nil, 9)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(9, 0.8, 3),
		MaxSteps:  50000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("expected early stop on decisions")
	}
	if len(substrate.Decisions(res.Config)) != 3 {
		t.Errorf("decisions = %v", substrate.Decisions(res.Config))
	}
}

func TestRoundRobinDeterminism(t *testing.T) {
	run := func() map[model.ProcessID]int {
		aut, pattern, hist := anucSetup(3, nil, 1)
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   hist,
			Scheduler: &sim.RoundRobinScheduler{},
			MaxSteps:  5000,
			StopWhen:  substrate.AllCorrectDecided(pattern),
		})
		if err != nil {
			t.Fatal(err)
		}
		return substrate.Decisions(res.Config)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic round-robin runs: %v vs %v", a, b)
	}
	for p, v := range a {
		if b[p] != v {
			t.Fatalf("nondeterministic decisions: %v vs %v", a, b)
		}
	}
}

func TestScriptedSchedulerReplay(t *testing.T) {
	// Record a fair run, replay its choices, require identical decisions.
	aut, pattern, hist := anucSetup(3, map[model.ProcessID]model.Time{2: 40}, 4)
	res, err := sim.Run(sim.Exec{
		Automaton:    aut,
		Pattern:      pattern,
		History:      hist,
		Scheduler:    sim.NewFairScheduler(4, 0.8, 3),
		MaxSteps:     2000,
		StopWhen:     substrate.AllCorrectDecided(pattern),
		KeepSchedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("baseline run did not decide")
	}
	script := make([]sim.Choice, len(res.Schedule))
	for i, e := range res.Schedule {
		script[i] = sim.Choice{P: e.P, Deliver: e.M != nil}
	}
	res2, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: &sim.ScriptedScheduler{Script: script, Fallback: sim.NewFairScheduler(99, 0.8, 3)},
		MaxSteps:  len(script),
	})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := substrate.Decisions(res.Config), substrate.Decisions(res2.Config)
	if len(d1) != len(d2) {
		t.Fatalf("replay diverged: %v vs %v", d1, d2)
	}
	for p, v := range d1 {
		if d2[p] != v {
			t.Fatalf("replay diverged at %v: %d vs %d", p, v, d2[p])
		}
	}
}

func TestSchedulerSkipsCrashedScriptEntries(t *testing.T) {
	aut, pattern, hist := anucSetup(3, map[model.ProcessID]model.Time{0: 1}, 5)
	// Script names only the crashed process; scheduler must fall through to
	// the fallback instead of stepping it.
	s := &sim.ScriptedScheduler{
		Script:   []sim.Choice{{P: 0, Deliver: false}, {P: 0, Deliver: true}},
		Fallback: sim.NewFairScheduler(5, 0.8, 3),
	}
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: s,
		MaxSteps:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 50 {
		t.Errorf("run ended early: %d", res.Steps)
	}
}

func TestPartialSyncScheduler(t *testing.T) {
	aut, pattern, hist := anucSetup(3, nil, 8)
	inner := &sim.PartialSyncScheduler{
		GST:    50,
		Before: sim.NewFairScheduler(8, 0.1, 50), // starved prefix
		After:  &sim.RoundRobinScheduler{},
	}
	col := obs.NewCollector(obs.KindStep, obs.KindDeliver)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: inner,
		MaxSteps:  300,
		Bus:       obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Steps happen on both sides of GST, and the run completes its budget.
	pre, post, delivered := 0, 0, 0
	for _, ev := range col.Events() {
		switch {
		case ev.Kind == obs.KindDeliver:
			delivered++
		case ev.T < 50:
			pre++
		default:
			post++
		}
	}
	if pre == 0 || post == 0 {
		t.Fatalf("expected steps on both sides of GST (pre=%d post=%d)", pre, post)
	}
	if res.Steps != 300 {
		t.Fatalf("steps = %d", res.Steps)
	}
	// The starved prefix delivers far fewer messages per step than the
	// timely suffix.
	if delivered == 0 {
		t.Fatal("no deliveries at all")
	}
}

// TestAllProcessesCrash: the run ends cleanly when nobody is left alive —
// the consensus properties are vacuous (correct(F) = ∅).
func TestAllProcessesCrash(t *testing.T) {
	aut, _, hist := anucSetup(3, nil, 1)
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{0: 5, 1: 9, 2: 13})
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(1, 0.8, 3),
		MaxSteps:  200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps >= 13 {
		t.Errorf("steps = %d, want < 13 (everyone dead by t=13)", res.Steps)
	}
	out := checkOutcome(res.Config)
	if err := out.NonuniformConsensus(pattern); err != nil {
		t.Errorf("vacuous consensus must pass: %v", err)
	}
}

// TestHistoryMatchesPerTickSnapshot is the reference test of the one rule
// that turns the bus's per-step output events into the emulated history
// H′ of §2.9: on a kept schedule of T_{Σν→Σν+}, check.History must equal,
// element for element, an independent snapshot of every state's
// EmulatedOutput() after every tick — crashed processes included.
func TestHistoryMatchesPerTickSnapshot(t *testing.T) {
	n := 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 30})
	aut := transform.NewSigmaNuPlusTransformer(n)
	col := obs.NewCollector(obs.KindFDOutput)
	res, err := sim.Run(sim.Exec{
		Automaton:    aut,
		Pattern:      pattern,
		History:      fd.NewSigmaNu(pattern, 80, 3),
		Scheduler:    sim.NewFairScheduler(2, 0.8, 3),
		MaxSteps:     400,
		KeepSchedule: true,
		Bus:          obs.NewBus(nil, nil, col),
	})
	if err != nil {
		t.Fatal(err)
	}

	var want []check.Sample
	snapshot := func(c *model.Configuration, at model.Time) {
		for i, s := range c.States {
			if v := s.(model.FDOutput).EmulatedOutput(); v != nil {
				want = append(want, check.Sample{P: model.ProcessID(i), T: at, Val: v})
			}
		}
	}
	c := model.InitialConfiguration(aut)
	snapshot(c, 0)
	for i, e := range res.Schedule {
		c.Apply(aut, e)
		snapshot(c, res.Times[i])
	}

	got := check.History(col.Events(), res.Ticks)
	if len(got) != len(want) || len(want) != n*(int(res.Ticks)+1) {
		t.Fatalf("rebuilt history has %d samples, the snapshots %d, want n·(ticks+1) = %d", len(got), len(want), n*(int(res.Ticks)+1))
	}
	changes := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: rebuilt %v, snapshot %v", i, got[i], want[i])
		}
		if i >= n && want[i].Val != want[i-n].Val {
			changes++
		}
	}
	if changes == 0 {
		t.Error("no output ever changed: the run does not exercise the fill-forward")
	}
}
