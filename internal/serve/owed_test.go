package serve_test

import (
	"fmt"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/sim"
)

// TestOwedBodiesReachAFullLog: a batch body waits in its replica until a
// step of it sends anything, and then goes to every peer at once (pay).
// Here ingress-fed replicas fill a log barely longer than the batch count,
// so the last bodies are minted as the log closes, at n ∈ {3, 4} ×
// pipeline {1, 2} over 20 seeds, under a settling Ω and under a flapping
// one, fault-free and with the highest id crashing mid-run. Every run must
// end with every correct replica's log full and every decided slot applied
// there: none waits for a body (StatsOf().Stalled is 0), and the replicas'
// machines agree. A body that never reaches a replica stalls its slot
// there until the step budget runs out: sending a body only to the peers
// a step already reaches loses, with the crash, a body whose ID the
// crashed replica's leader had let out.
func TestOwedBodiesReachAFullLog(t *testing.T) {
	for _, n := range []int{3, 4} {
		for _, crash := range []bool{false, true} {
			for _, pipe := range []int{1, 2} {
				for seed := int64(0); seed < 20; seed++ {
					owedRun(t, n, crash, pipe, seed, false)
					owedRun(t, n, crash, pipe, seed, true)
				}
			}
		}
	}
}

// owedRun is one run of TestOwedBodiesReachAFullLog: every process pushes
// three one-command batches into a log of 3n + 1 slots.
func owedRun(t *testing.T, n int, crash bool, pipe int, seed int64, flapping bool) {
	t.Helper()
	const perProcess = 3
	name := fmt.Sprintf("n=%d crash=%v pipe=%d seed=%d flapping=%v", n, crash, pipe, seed, flapping)
	var crashes map[model.ProcessID]model.Time
	if crash {
		crashes = map[model.ProcessID]model.Time{model.ProcessID(n - 1): 80}
	}
	pattern := model.PatternFromCrashes(n, crashes)
	correct := pattern.Correct().Slice()
	var omega model.History = fd.NewOmega(pattern, 60, seed)
	if flapping {
		omega = &fd.AlternatingOmega{Misleader: 0, Leader: 1, Period: 3, Stabilize: 120}
	}
	slots := n*perProcess + 1
	cl := serve.NewCluster(serve.Config{N: n, Slots: slots, Pipeline: pipe, Correct: pattern.Correct(), Retain: true})
	for p := model.ProcessID(0); int(p) < n; p++ {
		for i := 0; i < perProcess; i++ {
			cl.Ingress(p).Push(oneCmd(uint32(p)+1, uint64(i+1)))
		}
	}
	done := func(c *model.Configuration, _ model.Time) bool {
		for _, p := range correct {
			st := cl.Applier(p).StatsOf()
			if _, full := model.DecisionOf(c.States[p]); !full || st.Applied < slots || st.Stalled > 0 {
				return false
			}
		}
		return true
	}
	res, err := sim.Run(sim.Exec{
		Automaton: cl.Automaton(),
		Pattern:   pattern,
		History:   fd.PairHistory{First: omega, Second: fd.NewSigmaNuPlus(pattern, 60, seed)},
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  20000,
		StopWhen:  done,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Stopped {
		for _, p := range correct {
			t.Errorf("%s: p%d stalled: %s", name, p, serve.DebugState(res.Config.States[p]))
		}
		return
	}
	for _, p := range correct[1:] {
		if a, b := cl.Applier(p).Checksum(), cl.Applier(correct[0]).Checksum(); a != b {
			t.Errorf("%s: p%d's machine %x, p%d's %x", name, p, a, correct[0], b)
		}
	}
}
