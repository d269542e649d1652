package experiments

import (
	"fmt"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// TestProbeContamination is a diagnostic: it traces the naive algorithm
// under the contamination adversary for a few seeds.
func TestProbeContamination(t *testing.T) {
	adv := e6Adversary
	for seed := int64(1); seed <= 6; seed++ {
		pattern := adv.pattern()
		props := []int{0, 0, 1}
		hist := adv.history(pattern, seed)
		aut := consensus.NewMRNaiveNu(props)
		decisions := obs.NewCollector(obs.KindDecide)
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   hist,
			Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
			MaxSteps:  20000,
			StopWhen:  substrate.AllCorrectDecided(pattern),
			Bus:       obs.NewBus(nil, nil, decisions),
		})
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("seed=%d stopped=%v t=%d:", seed, res.Stopped, res.Ticks)
		for _, d := range decisions.Events() {
			line += fmt.Sprintf(" %s→%d@t=%d", d.P, d.Value, d.T)
		}
		for i, s := range res.Config.States {
			r, _ := model.RoundOf(s)
			line += fmt.Sprintf(" [p%d round=%d]", i, r)
		}
		t.Log(line)
	}
}
