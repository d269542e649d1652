package rsm_test

import (
	"fmt"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// TestLentLeadsUnderFlappingOmega is a liveness sweep over the held
// round-1 LEADs (follow.go): n = 3 and 4, pipeline 1, 2 and 4, 20 seeds,
// and an Ω that changes its mind — on even seeds it alternates between p1
// and p0 every Period ticks until 40 × Period, on odd seeds it names
// random processes until 30 × Period — for Period 1, 3 and 7. Every run
// must fill every process's log with the history delta chain unbroken.
// A release that never fires, or a hold that also takes LEADs of later
// rounds (which a quiet instance wakes on), leaves some run short.
func TestLentLeadsUnderFlappingOmega(t *testing.T) {
	const slots = 8
	var lent, released, bare int64
	for _, n := range []int{3, 4} {
		pattern := model.PatternFromCrashes(n, nil)
		cmds := make([][]int, n)
		for p := range cmds {
			cmds[p] = []int{10*p + 1, 10*p + 2}
		}
		for _, pipe := range []int{1, 2, 4} {
			for _, period := range []model.Time{1, 3, 7} {
				for seed := int64(0); seed < 20; seed++ {
					var omega model.History = &fd.AlternatingOmega{Misleader: 0, Leader: 1, Period: period, Stabilize: 40 * period}
					if seed%2 == 1 {
						omega = fd.NewOmega(pattern, 30*period, seed)
					}
					name := fmt.Sprintf("n=%d pipe=%d period=%d seed=%d", n, pipe, period, seed)
					reg := obs.NewRegistry()
					res, err := sim.Run(sim.Exec{
						Automaton: rsm.NewLog(cmds, slots).WithPipeline(pipe).WithMetrics(reg),
						Pattern:   pattern,
						History:   fd.PairHistory{First: omega, Second: fd.NewSigmaNuPlus(pattern, 30*period, seed)},
						Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
						MaxSteps:  20000,
						StopWhen:  substrate.AllCorrectDecided(pattern),
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !res.Stopped {
						for p, s := range res.Config.States {
							t.Errorf("%s: p%d stalled: %s", name, p, rsm.DebugState(s))
						}
						continue
					}
					if gaps := reg.Counter("rsm.hist.delta_gaps").Value(); gaps != 0 {
						t.Errorf("%s: delta_gaps = %d: a released LEAD broke its link's delta chain", name, gaps)
					}
					lent += reg.Counter("rsm.lead_lent").Value()
					released += reg.Counter("rsm.lead_released").Value()
					bare += reg.Counter("rsm.follow_bare").Value()
				}
			}
		}
	}
	if lent == 0 || released == 0 || bare == 0 {
		t.Errorf("%d LEADs held, %d released, %d bare FLWs: the sweep lost its premise", lent, released, bare)
	}
	t.Logf("%d LEADs held, %d released, %d bare FLWs", lent, released, bare)
}
