package rsm_test

import (
	"context"
	"strings"
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// TestAwarenessCountersAndStatus: on a stable fault-free run the first
// window of every process opens unseeded (nothing is acknowledged yet), the
// rest of the log opens seeded, and AwareStatus says so per process — the
// line nucd's /statusz prints.
func TestAwarenessCountersAndStatus(t *testing.T) {
	const n, slots, window = 4, 16, 2
	pattern := model.PatternFromCrashes(n, nil)
	reg := obs.NewRegistry()
	sampler := rsm.SamplerForLog(pattern, 0, 5)
	aut := rsm.NewLog([][]int{{10}, {20}, {30}, {40}}, slots).WithPipeline(window).WithMetrics(reg).WithSampler(sampler)
	if got := aut.AwareStatus(0); got != "" {
		t.Fatalf("status before any instance exists = %q, want empty", got)
	}
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(5, 0.8, 3),
		MaxSteps:  200000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil || !res.Stopped {
		t.Fatalf("err=%v filled=%v", err, res != nil && res.Stopped)
	}
	seeded := reg.Counter("rsm.aware.seeded").Value()
	unseeded := reg.Counter("rsm.aware.unseeded").Value()
	if opened := reg.Counter("rsm.instances_opened").Value(); seeded+unseeded != opened {
		t.Errorf("seeded %d + unseeded %d != instances opened %d", seeded, unseeded, opened)
	}
	if unseeded < n*window || seeded < n*(slots-2*window) {
		t.Errorf("seeded=%d unseeded=%d: want the first window (%d opens) unseeded and the log's tail seeded", seeded, unseeded, n*window)
	}
	if records := reg.Counter("rsm.aware.records").Value(); records < n {
		t.Errorf("rsm.aware.records = %d, want at least one quorum per process", records)
	}
	for p := model.ProcessID(0); p < n; p++ {
		if got := aut.AwareStatus(p); !strings.Contains(got, "seeded with") {
			t.Errorf("p%d: status %q, want the last open seeded", p, got)
		}
	}
	if got := rsm.NewLog([][]int{{1}, {2}}, 2).AwareStatus(0); got != "" {
		t.Errorf("unmetered log's status = %q, want empty", got)
	}
}

// TestAwareStatusWhileRunning: AwareStatus is safe to call while the log
// runs, as nucd's /statusz does. A reader polls every process's status
// while a log fills on the async substrate; run it under -race.
func TestAwareStatusWhileRunning(t *testing.T) {
	sub, err := substrate.Get("async")
	if err != nil {
		t.Fatal(err)
	}
	const n, slots = 3, 24
	pattern := model.PatternFromCrashes(n, nil)
	sampler := rsm.SamplerForLog(pattern, 0, 3)
	aut := rsm.NewLog([][]int{{10}, {20}, {30}}, slots).WithPipeline(2).WithSampler(sampler)
	done, polled := make(chan struct{}), make(chan int)
	go func() {
		reads := 0
		for {
			select {
			case <-done:
				polled <- reads
				return
			default:
			}
			for p := range n {
				aut.AwareStatus(model.ProcessID(p))
				reads++
			}
		}
	}()
	res, err := sub.Run(context.Background(), aut, sampler, pattern, substrate.Options{Seed: 3, MaxSteps: 2_000_000, StopWhenDecided: true})
	close(done)
	reads := <-polled
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || reads == 0 {
		t.Fatalf("Decided=%v after %d status reads", res.Decided, reads)
	}
	for p := model.ProcessID(0); p < n; p++ {
		if aut.AwareStatus(p) == "" {
			t.Errorf("p%d opened instances, yet its status is empty", p)
		}
	}
}
