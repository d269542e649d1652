package rsm_test

import (
	"reflect"
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// idleTap checks model.Idler's promise before every step of a run: when
// the automaton says p is idle under the step's d, a λ-step of a clone
// under that d sends nothing and leaves the clone reflect.DeepEqual to an
// unstepped one. The run itself goes on with the step the scheduler chose.
type idleTap struct {
	model.Automaton
	idler model.Idler
	t     *testing.T
	idle  int // steps before which the automaton said idle
}

func (a *idleTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if a.idler.Idle(p, s, d) {
		a.idle++
		stepped, kept := s.CloneState(), s.CloneState()
		ns, sends := a.Automaton.Step(p, stepped, nil, d)
		if len(sends) > 0 || !reflect.DeepEqual(ns, kept) {
			a.t.Fatalf("%v said idle under %v, yet its λ-step sent %v\nbefore: %s\nafter:  %s",
				p, d, rsm.Flatten(sends), rsm.DebugState(kept), rsm.DebugState(ns))
		}
	}
	return a.Automaton.Step(p, s, m, d)
}

// TestIdleStepChangesNothing: rsm.Log.Idle is exact where it says idle.
// Seeded window-2 logs at n = 4 are checked before every step (idleTap):
// fault-free, with p0 crashed mid-run, and with p3 lagging as in
// TestQuietLaggardCatchesUp, so that the others' decided slots wake for it
// and the pump steps them below the frontier. Each run must say idle often
// enough to mean something, and must still fill its log.
func TestIdleStepChangesNothing(t *testing.T) {
	cases := []struct {
		name    string
		crashes map[model.ProcessID]model.Time
		lag     bool
	}{
		{"fault-free", nil, false},
		{"p0 crashed", map[model.ProcessID]model.Time{0: 150}, false},
		{"p3 lagging", nil, true},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 8; seed++ {
			pattern := model.PatternFromCrashes(quietN, c.crashes)
			sampler := rsm.SamplerForLog(pattern, 80, seed)
			var hist model.History = sampler
			var sched sim.Scheduler = sim.NewFairScheduler(seed, 0.8, 3)
			if c.lag {
				hist = threeOfFour
				sched = &starveUntil{inner: sched, victim: quietLag, release: func(cfg *model.Configuration) bool {
					return appendedBy(cfg.States[0]) >= quietStarve && appendedBy(cfg.States[1]) >= quietStarve && appendedBy(cfg.States[2]) >= quietStarve
				}}
			}
			log := rsm.NewLog(quietCmds(), quietSlots).WithSampler(sampler).WithPipeline(2)
			tap := &idleTap{Automaton: log, idler: log, t: t}
			res, err := sim.Run(sim.Exec{
				Automaton: tap,
				Pattern:   pattern,
				History:   hist,
				Scheduler: sched,
				MaxSteps:  200000,
				StopWhen:  substrate.AllCorrectDecided(pattern),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stopped {
				t.Fatalf("%s, seed %d: the log never filled", c.name, seed)
			}
			t.Logf("%s, seed %d: idle before %d of %d steps", c.name, seed, tap.idle, res.Steps)
			if tap.idle*20 < res.Steps {
				t.Errorf("%s, seed %d: idle before %d of %d steps, want at least 5%%", c.name, seed, tap.idle, res.Steps)
			}
		}
	}
}
