package rsm

import (
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
)

// progressOnly reports whether a message carries nothing but PRGRs: bare,
// or a bundle of them.
func progressOnly(pl model.Payload) bool {
	items, bundled := pl.(Bundle)
	if !bundled {
		items = Bundle{pl}
	}
	for _, it := range items {
		if _, prgr := it.(ProgressPayload); !prgr {
			return false
		}
	}
	return true
}

// progressTap fails its test on any step that sends a peer a message of
// PRGRs alone while the sender still has an undecided in-flight slot, whose
// next broadcast could have carried them.
type progressTap struct {
	model.Automaton
	t *testing.T
}

func (a progressTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	st := ns.(*logState)
	for slot := st.slot; slot < st.windowEnd(); slot++ {
		if _, decided := model.DecisionOf(st.recs[slot].inst); decided {
			continue
		}
		for _, snd := range sends {
			if progressOnly(snd.Payload) {
				a.t.Fatalf("p%d sent p%d %v alone with slot %d undecided in flight", p, snd.To, snd.Payload, slot)
			}
		}
	}
	return ns, sends
}

// TestProgressRidesTraffic: across fault-free n = 4, window-2 runs, no step
// sends a peer PRGR alone while an undecided slot is in flight, yet every
// process ends up knowing every other filled the log — its floor reaches
// slots — because the last frontier leaves bare once nothing is left to
// carry it. Fewer leave bare than ride other traffic or are implied by the
// slot items a step sends (rsm.progress_implied), and some are implied.
func TestProgressRidesTraffic(t *testing.T) {
	const n, slots = 4, 24
	pattern := model.PatternFromCrashes(n, nil)
	cmds := make([][]int, n)
	for p := range cmds {
		for c := 0; c < 4; c++ {
			cmds[p] = append(cmds[p], 100*p+c)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		reg := obs.NewRegistry()
		sampler := SamplerForLog(pattern, 60, seed)
		res, err := sim.Run(sim.Exec{
			Automaton: progressTap{NewLog(cmds, slots).WithSampler(sampler).WithPipeline(2).WithMetrics(reg), t},
			Pattern:   pattern,
			History:   sampler,
			Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
			MaxSteps:  20000,
			StopWhen: func(c *model.Configuration, _ model.Time) bool {
				for _, s := range c.States {
					if FloorOf(s) < slots {
						return false
					}
				}
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			for p, s := range res.Config.States {
				t.Errorf("seed %d: p%d floor %d of %d: %s", seed, p, FloorOf(s), slots, DebugState(s))
			}
			continue
		}
		carried, bare := reg.Counter("rsm.progress_carried").Value(), reg.Counter("rsm.progress_bare").Value()
		implied := reg.Counter("rsm.progress_implied").Value()
		if bare == 0 || implied == 0 || bare > carried+implied {
			t.Errorf("seed %d: %d announcements carried, %d implied, %d bare: want some bare and some implied, and no more bare than the other two",
				seed, carried, implied, bare)
		}
	}
}
