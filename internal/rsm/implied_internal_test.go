package rsm

import (
	"fmt"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// windowTap fails its test on any step that sends a slot item at or past
// the sender's window: slot ≥ frontier + window, the frontier read after
// the step. Every slot item is a progress announcement of slot − window + 1
// (impliedFrontier) only because none is.
type windowTap struct {
	model.Automaton
	t    *testing.T
	name string
}

func (a windowTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	st := ns.(*logState)
	for _, snd := range Flatten(sends) {
		if sp, ok := snd.Payload.(SlotPayload); ok && sp.Slot >= st.slot+st.window {
			a.t.Fatalf("%s: p%d at frontier %d, window %d, sent p%d %v", a.name, p, st.slot, st.window, snd.To, sp)
		}
	}
	return ns, sends
}

// TestSlotItemsBoundTheSendersFrontier: across runs shaped like
// TestLentLeadsUnderFlappingOmega — n = 3 and 4, windows 1, 2 and 4, an Ω
// that flaps before it settles, half of them with the highest id crashing
// mid-run (t = 40) — no step sends a slot item at or past its sender's window, and after
// every step every process's progress row is a lower bound on each
// process's real frontier, though slot items raise it. Every run fills
// every correct log, and some PRGR is left unsent because the step's slot
// items implied it.
func TestSlotItemsBoundTheSendersFrontier(t *testing.T) {
	const slots = 8
	var implied int64
	for _, n := range []int{3, 4} {
		cmds := make([][]int, n)
		for p := range cmds {
			cmds[p] = []int{10*p + 1, 10*p + 2}
		}
		for _, pipe := range []int{1, 2, 4} {
			for _, crash := range []bool{false, true} {
				crashes := map[model.ProcessID]model.Time{}
				if crash {
					crashes[model.ProcessID(n-1)] = 40
				}
				pattern := model.PatternFromCrashes(n, crashes)
				for seed := int64(0); seed < 6; seed++ {
					var omega model.History = &fd.AlternatingOmega{Misleader: 0, Leader: 1, Period: 3, Stabilize: 120}
					if seed%2 == 1 {
						omega = fd.NewOmega(pattern, 90, seed)
					}
					name := fmt.Sprintf("n=%d pipe=%d crash=%v seed=%d", n, pipe, crash, seed)
					reg := obs.NewRegistry()
					allDecided := substrate.AllCorrectDecided(pattern)
					res, err := sim.Run(sim.Exec{
						Automaton: windowTap{NewLog(cmds, slots).WithPipeline(pipe).WithMetrics(reg), t, name},
						Pattern:   pattern,
						History:   fd.PairHistory{First: omega, Second: fd.NewSigmaNuPlus(pattern, 90, seed)},
						Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
						MaxSteps:  20000,
						StopWhen: func(c *model.Configuration, t0 model.Time) bool {
							for p, s := range c.States {
								for q, known := range s.(*logState).progress {
									if real := c.States[q].(*logState).slot; known > real {
										t.Fatalf("%s: t=%d: p%d knows p%d at %d, past its frontier %d", name, t0, p, q, known, real)
									}
								}
							}
							return allDecided(c, t0)
						},
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !res.Stopped {
						for p, s := range res.Config.States {
							t.Errorf("%s: p%d stalled: %s", name, p, DebugState(s))
						}
					}
					implied += reg.Counter("rsm.progress_implied").Value()
				}
			}
		}
	}
	if implied == 0 {
		t.Errorf("no PRGR was implied by a step's slot items: the sweep lost its premise")
	}
}
