package rsm_test

import (
	"context"
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/netrun"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// runSharedLog drives a metered replicated log, fed by a shared fd.Sampler
// rather than the raw detector history runLog uses, to completion and
// returns each process's final entries, the stop flag, and the metrics
// registry the run was instrumented with.
func runSharedLog(t *testing.T, cmds [][]int, slots int, crashes map[model.ProcessID]model.Time, seed int64) ([][]int, bool, *obs.Registry) {
	t.Helper()
	n := len(cmds)
	pattern := model.PatternFromCrashes(n, crashes)
	reg := obs.NewRegistry()
	sampler := rsm.SamplerForLog(pattern, 80, seed)
	aut := rsm.NewLog(cmds, slots).WithMetrics(reg).WithSampler(sampler)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  120000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]int, n)
	for i, s := range res.Config.States {
		if lh, ok := s.(rsm.LogHolder); ok {
			logs[i] = lh.Entries()
		}
	}
	return logs, res.Stopped, reg
}

// TestSharedLogAgreement: per-slot agreement and validity under the same
// seeds and crash pattern as TestReplicatedLogAgreement, with the detector
// sampled once per process and the delta transport's counters checked.
func TestSharedLogAgreement(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cmds := [][]int{{10, 11}, {20}, {30, 31}, {40}}
		crashes := map[model.ProcessID]model.Time{3: 60}
		logs, done, reg := runSharedLog(t, cmds, 4, crashes, seed)
		if !done {
			t.Fatalf("seed=%d: shared log never filled", seed)
		}
		pattern := model.PatternFromCrashes(4, crashes)
		var ref []int
		pattern.Correct().ForEach(func(p model.ProcessID) {
			if ref == nil {
				ref = logs[p]
				return
			}
			if len(logs[p]) != len(ref) {
				t.Fatalf("seed=%d: %v has %d entries, want %d", seed, p, len(logs[p]), len(ref))
			}
			for i := range ref {
				if logs[p][i] != ref[i] {
					t.Fatalf("seed=%d: logs diverge at slot %d: %v vs %v", seed, i, logs[p], ref)
				}
			}
		})
		valid := map[int]bool{rsm.NoOp: true}
		for _, qs := range cmds {
			for _, c := range qs {
				valid[c] = true
			}
		}
		for _, v := range ref {
			if !valid[v] {
				t.Fatalf("seed=%d: log contains unproposed command %d", seed, v)
			}
		}
		assertDeltaTransport(t, reg, 4)
		t.Logf("seed=%d: shared log %v", seed, ref)
	}
}

// assertDeltaTransport checks the history transport's counters: FIFO
// delivery makes gaps impossible, snapshot-shaped sends are the at-most-one
// first transfer per link, and delta chaining dominates them even on the
// few-slot logs the callers run — 5× there, because a log that sends fewer
// rounds per slot has fewer hits to set against the fixed n² first
// transfers (E17 gates the long-run ratio).
func assertDeltaTransport(t *testing.T, reg *obs.Registry, n int) {
	t.Helper()
	hits := reg.Counter("rsm.hist.delta_hits").Value()
	falls := reg.Counter("rsm.hist.full_fallbacks").Value()
	gaps := reg.Counter("rsm.hist.delta_gaps").Value()
	// A_nuc broadcasts include the sender itself, so there are n² FIFO
	// links (self-delivery included), each with at most one snapshot-shaped
	// first transfer.
	links := int64(n * n)
	if gaps != 0 {
		t.Errorf("delta_gaps = %d, want 0 (FIFO links cannot skip)", gaps)
	}
	if falls > links {
		t.Errorf("full_fallbacks = %d, want ≤ %d (one first transfer per link)", falls, links)
	}
	if hits <= 5*falls || hits == 0 {
		t.Errorf("delta_hits = %d vs full_fallbacks = %d: deltas should dominate", hits, falls)
	}
	if reg.Counter("rsm.fd.epochs").Value() == 0 {
		t.Error("rsm.fd.epochs never moved: sampler epochs not fanning out")
	}
	if reg.Gauge("rsm.hist.store_entries").Value() == 0 {
		t.Error("rsm.hist.store_entries gauge never set")
	}
}

// TestSharedLogDrainsCommands mirrors TestReplicatedLogDrainsCommands on
// the sampler-fed log.
func TestSharedLogDrainsCommands(t *testing.T) {
	cmds := [][]int{{1}, {2}, {3}}
	logs, done, _ := runSharedLog(t, cmds, 6, nil, 2)
	if !done {
		t.Fatal("shared log never filled")
	}
	appended := map[int]bool{}
	for _, v := range logs[0] {
		appended[v] = true
	}
	for p, qs := range cmds {
		for _, c := range qs {
			if !appended[c] {
				t.Errorf("p%d's command %d never appended in %v", p, c, logs[0])
			}
		}
	}
}

// TestSharedLogOverTCP runs the sampler-fed log over real sockets: delta
// payloads cross the wire codec and the sampler is hit from per-process
// goroutines concurrently.
func TestSharedLogOverTCP(t *testing.T) {
	cmds := [][]int{{7}, {8}, {9}}
	const slots = 3
	pattern := model.PatternFromCrashes(3, nil)
	reg := obs.NewRegistry()
	sampler := rsm.SamplerForLog(pattern, 100, 4)
	aut := rsm.NewLog(cmds, slots).WithMetrics(reg).WithSampler(sampler)
	res, err := netrun.New().Run(context.Background(), aut, sampler, pattern, substrate.Options{
		Seed:            4,
		MaxSteps:        3_000_000,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("shared TCP log never filled (%d ticks)", res.Ticks)
	}
	var ref []int
	for p := 0; p < 3; p++ {
		entries := res.Config.States[p].(rsm.LogHolder).Entries()
		if ref == nil {
			ref = entries
		} else if len(entries) != len(ref) {
			t.Fatalf("log lengths diverge: %v vs %v", entries, ref)
		} else {
			for i := range ref {
				if entries[i] != ref[i] {
					t.Fatalf("logs diverge: %v vs %v", entries, ref)
				}
			}
		}
	}
	if gaps := reg.Counter("rsm.hist.delta_gaps").Value(); gaps != 0 {
		t.Errorf("delta_gaps = %d over TCP, want 0 (per-link FIFO)", gaps)
	}
	t.Logf("shared TCP replicated log: %v (%d wire bytes)", ref, res.BytesSent)
}

// TestStatsOfModes: StatsOf reads a log state's store and instance count,
// and is zero for foreign states.
func TestStatsOfModes(t *testing.T) {
	if got := rsm.StatsOf(nonLogState{}); got != (rsm.StateStats{}) {
		t.Errorf("StatsOf(foreign) = %+v, want zero", got)
	}
	init := rsm.NewLog([][]int{{1}, {2}}, 2).InitState(0)
	if got := rsm.StatsOf(init); got != (rsm.StateStats{LiveInstances: 1}) {
		t.Errorf("StatsOf(init) = %+v, want one live instance over an empty store", got)
	}
}

// peakHist records the high-water StatsOf().HistEntries of any process.
type peakHist struct {
	model.Automaton
	peak int
}

func (a *peakHist) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, out := a.Automaton.Step(p, s, m, d)
	a.peak = max(a.peak, rsm.StatsOf(ns).HistEntries)
	return ns, out
}

// TestHistoryFootprintFlatInLogLength: with one process crashed the
// retirement floor stalls and every later slot's instance is held for good,
// but the histories live once per process, not once per instance — so the
// most any process ever holds is the same on a 16-slot log as on a 4-slot
// one (E17's shape, n=5). A per-instance copy held 20 vs 68 entries here.
// The floor stalls where the crashed process's last progress left it: before
// it dies it decides slots alone in the steps where its Ω names itself (its
// Σν+ module, being faulty, outputs just itself, and its own messages loop
// back), so that is slot 2 here, whatever the log's length.
func TestHistoryFootprintFlatInLogLength(t *testing.T) {
	const n = 5
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{n - 1: 30})
	cmds := make([][]int, n)
	for p := range cmds {
		cmds[p] = []int{100*p + 1}
	}
	const stall = 2
	peakAt := func(slots int) int {
		meter := &peakHist{Automaton: rsm.NewLog(cmds, slots)}
		res, err := sim.Run(sim.Exec{
			Automaton: meter,
			Pattern:   pattern,
			History:   rsm.PairForLog(pattern, 80, 1),
			Scheduler: sim.NewFairScheduler(1, 0.8, 3),
			MaxSteps:  200000,
			StopWhen:  substrate.AllCorrectDecided(pattern),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatalf("%d-slot log never filled", slots)
		}
		if live := rsm.StatsOf(res.Config.States[0]).LiveInstances; live < slots-stall {
			t.Fatalf("%d-slot log holds %d live instances: the crash did not stall retirement", slots, live)
		}
		return meter.peak
	}
	short, long := peakAt(4), peakAt(16)
	if short == 0 || long != short {
		t.Errorf("peak history entries: %d at 4 slots, %d at 16; want equal and nonzero", short, long)
	}
}

// TestSharedLogLaggardCatchesUp: a process starved through thousands of
// steps — while its peers decide slots, retire instances, and compact
// their delta logs — must still drain its FIFO backlog, decide every slot
// itself, and agree, with zero delta gaps and no late snapshot fallbacks
// (compaction floors never pass a version already shipped to the laggard).
func TestSharedLogLaggardCatchesUp(t *testing.T) {
	cmds := [][]int{{10}, {20}, {30}}
	const slots = 4
	pattern := model.PatternFromCrashes(3, nil)
	reg := obs.NewRegistry()
	sampler := rsm.SamplerForLog(pattern, 80, 6)
	aut := rsm.NewLog(cmds, slots).WithMetrics(reg).WithSampler(sampler)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   sampler,
		Scheduler: starveFor(4000, 2, sim.NewFairScheduler(6, 0.8, 3)),
		MaxSteps:  200000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("laggard never caught up")
	}
	ref := res.Config.States[0].(rsm.LogHolder).Entries()
	lag := res.Config.States[2].(rsm.LogHolder).Entries()
	if len(ref) != slots || len(lag) != slots {
		t.Fatalf("log lengths: p0=%d p2=%d, want %d", len(ref), len(lag), slots)
	}
	for i := range ref {
		if ref[i] != lag[i] {
			t.Fatalf("laggard diverged at slot %d: %v vs %v", i, lag, ref)
		}
	}
	assertDeltaTransport(t, reg, 3)
}
