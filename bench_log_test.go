// Long-log and history-delta benchmarks: the replicated log's end-to-end
// cost over its per-process versioned history store (internal/rsm/
// shared.go), and the delta machinery's inner loops. Both are part of the
// allocs/op perf gate (BENCH_15.json): BenchmarkHistoryDelta's
// append-shaped delta paths (AppendSince into a scratch buffer, redundant
// Apply, delta payload encode) must stay at 0 allocs/op so the per-send
// cost of the delta transport never scales with history size, and
// BenchmarkLogLongRun's ~14 allocs per step is what a run costs
// when Step mutates the state it owns — a per-step CloneState creeping
// back multiplies it by six and fails the gate.
package nuconsensus_test

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/wire"
)

// BenchmarkLogLongRun fills an 8-slot replicated log per iteration — the
// long-run shape E17 measures, at benchmark-friendly size. The
// sub-benchmarks keep the names they had while an owned-mode log ran
// beside them, so the BENCH trend continues: shared is the fault-free run;
// shared-crash is E17's stalled-retirement shape on a log long enough to
// show ageing: n=4, the last process crashed at time 30, 32 slots, none of
// which ever retires. Its steps/slot must sit where E17's 4-slot point
// does — decided instances go quiet, so a slot costs the same however many
// are held — and its allocs/op must not grow a per-step term in the
// number of held instances.
func BenchmarkLogLongRun(b *testing.B) {
	run := func(b *testing.B, cmds [][]int, slots int, crashes map[model.ProcessID]model.Time) {
		b.Helper()
		pattern := model.PatternFromCrashes(len(cmds), crashes)
		var steps int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed := int64(i + 1)
			sampler := rsm.SamplerForLog(pattern, 80, seed)
			res, err := sim.Run(sim.Exec{
				Automaton: rsm.NewLog(cmds, slots).WithSampler(sampler),
				Pattern:   pattern,
				History:   sampler,
				Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
				MaxSteps:  200000,
				StopWhen:  rsm.AllAppended(pattern, slots),
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stopped {
				b.Fatalf("iteration %d: log never filled", i)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		b.ReportMetric(float64(steps)/float64(b.N)/float64(slots), "steps/slot")
	}
	three := [][]int{{1, 2, 3}, {4, 5, 6}, {7, 8}}
	b.Run("shared", func(b *testing.B) { run(b, three, 8, nil) })
	four := [][]int{{1}, {101}, {201}, {301}}
	b.Run("shared-crash", func(b *testing.B) {
		run(b, four, 32, map[model.ProcessID]model.Time{3: 30})
	})
}

// benchVersioned builds a 5-process store holding every 2-process quorum
// for every reporter: 50 distinct entries, the scale of a decided run.
func benchVersioned() *quorum.Versioned {
	v := quorum.NewVersioned(5)
	for r := 0; r < 5; r++ {
		for a := 0; a < 5; a++ {
			for c := a + 1; c < 5; c++ {
				v.Add(model.ProcessID(r), model.SetOf(model.ProcessID(a), model.ProcessID(c)))
			}
		}
	}
	return v
}

// BenchmarkHistoryDelta measures the versioned-store inner loops the
// shared log hits on every send and delivery. All four sub-benchmarks
// must be 0 allocs/op in steady state: the scratch buffers come from the
// caller (rsm reuses per-state delta buffers), and redundant applies
// dedup without mutating.
func BenchmarkHistoryDelta(b *testing.B) {
	b.Run("append-since", func(b *testing.B) {
		v := benchVersioned()
		base := v.Version() - 4
		dst, _, _ := v.AppendSince(nil, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var full bool
			dst, _, full = v.AppendSince(dst[:0], base)
			if full || len(dst) != 4 {
				b.Fatalf("AppendSince(%d) = %d entries, full=%v", base, len(dst), full)
			}
		}
	})
	b.Run("snapshot-fallback", func(b *testing.B) {
		v := benchVersioned()
		v.Compact(v.Version()) // force every base below the floor
		dst, _, _ := v.AppendSince(nil, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var full bool
			dst, _, full = v.AppendSince(dst[:0], 1)
			if !full || len(dst) != v.Len() {
				b.Fatalf("AppendSince(1) = %d entries, full=%v", len(dst), full)
			}
		}
	})
	b.Run("apply-redundant", func(b *testing.B) {
		v := benchVersioned()
		d := v.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if novel := v.Apply(d); novel != 0 {
				b.Fatalf("redundant apply found %d novel entries", novel)
			}
		}
	})
	b.Run("encode-delta", func(b *testing.B) {
		v := benchVersioned()
		d := v.DeltaSince(v.Version() - 8)
		// Box the payload once: the codec itself is allocation-free, and in
		// the real send path the payload is already behind the interface.
		var pl model.Payload = rsm.SlotPayload{Slot: 2, Inner: consensus.LeadDeltaPayload{K: 3, V: 1, Delta: d}}
		buf, err := wire.AppendPayload(nil, pl)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = wire.AppendPayload(buf[:0], pl); err != nil {
				b.Fatal(err)
			}
		}
	})
}
