// Steady-state allocation pins for the sim step loop (DESIGN.md §8). The
// CI perf job gates allocs/op through BENCH_15.json; these tests pin the
// same contract in plain `go test`, so a regression fails everywhere, not
// only in the perf job.
package nuconsensus_test

import (
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
)

// simRunAllocs measures the allocations of one whole sim.Run of the given
// length (scheduler and pattern construction included).
func simRunAllocs(t *testing.T, aut model.Automaton, bus *obs.Bus, steps int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		pattern := model.NewFailurePattern(aut.N())
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   nullHistory{},
			Scheduler: sim.NewFairScheduler(1, 0.8, 3),
			MaxSteps:  steps,
			Bus:       bus,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != steps {
			t.Fatalf("ran %d steps, want %d", res.Steps, steps)
		}
	})
}

// TestSimStepSteadyStateAllocFree asserts the step loop's steady state is
// allocation-free: two runs differing only in step count must allocate
// exactly the same amount, both bare and with the obs event bus attached.
// (A per-run total would also count setup, so the contract is pinned on
// the difference; the sim engine is single-goroutine, making the counts
// exact, not statistical.)
func TestSimStepSteadyStateAllocFree(t *testing.T) {
	const base, extra = 2000, 10000
	for _, tc := range []struct {
		name string
		bus  func() *obs.Bus
	}{
		{"idle", func() *obs.Bus { return nil }},
		{"idle-bus", func() *obs.Bus { return obs.NewBus(nil, obs.NewRegistry()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aut := idleAutomaton{n: 4}
			short := simRunAllocs(t, aut, tc.bus(), base)
			long := simRunAllocs(t, aut, tc.bus(), base+extra)
			if d := long - short; d != 0 {
				t.Errorf("steady-state step loop allocated: %g extra allocs over %d extra steps (short=%g, long=%g)",
					d, extra, short, long)
			}
		})
	}
}
