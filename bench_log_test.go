// Long-log and history-delta benchmarks: the replicated log's end-to-end
// cost over its per-process versioned history store (internal/rsm/
// shared.go), and the delta machinery's inner loops. TestHotPathAllocs
// pins both: the append-shaped delta paths (AppendSince into a scratch
// buffer, redundant Apply, delta payload encode) stay at 0 allocs/op so
// the per-send cost of the delta transport never scales with history
// size, and a long-log run's ~14 allocs per step is what a run costs when
// Step mutates the state it owns — a per-step CloneState creeping back
// multiplies it and fails the gate.
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

// logRun is one shape of BenchmarkLogLongRun: commands per process, log
// length, and crashes.
type logRun struct {
	cmds    [][]int
	slots   int
	crashes map[model.ProcessID]model.Time
}

// The sub-benchmark names date from when an owned-mode log ran beside
// them. logShared is the fault-free run; logSharedCrash is E17's
// stalled-retirement shape on a log long enough to show ageing: n=4, the
// last process crashed at time 30, 32 slots, none of which ever retires.
// Its steps/slot must sit where E17's 4-slot point does — decided
// instances go quiet, so a slot costs the same however many are held —
// and its allocs/op must not grow a per-step term in the number of held
// instances.
var (
	logShared      = logRun{[][]int{{1, 2, 3}, {4, 5, 6}, {7, 8}}, 8, nil}
	logSharedCrash = logRun{[][]int{{1}, {101}, {201}, {301}}, 32, map[model.ProcessID]model.Time{3: 30}}
)

// op fills the log once per call, at seeds 1, 2, … in call order, adding
// each run's steps to *steps.
func (l logRun) op(steps *int) hotOp {
	return func(tb testing.TB) func() {
		pattern := model.PatternFromCrashes(len(l.cmds), l.crashes)
		seed := int64(0)
		return func() {
			seed++
			sampler := rsm.SamplerForLog(pattern, 80, seed)
			res, err := sim.Run(sim.Exec{
				Automaton: rsm.NewLog(l.cmds, l.slots).WithSampler(sampler),
				Pattern:   pattern,
				History:   sampler,
				Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
				MaxSteps:  200000,
				StopWhen:  rsm.AllAppended(pattern, l.slots),
			})
			if err != nil {
				tb.Fatal(err)
			}
			if !res.Stopped {
				tb.Fatalf("seed %d: log never filled", seed)
			}
			*steps += res.Steps
		}
	}
}

// BenchmarkLogLongRun fills a replicated log per iteration — the long-run
// shape E17 measures, at benchmark-friendly size.
func BenchmarkLogLongRun(b *testing.B) {
	for _, tc := range []struct {
		name string
		run  logRun
	}{{"shared", logShared}, {"shared-crash", logSharedCrash}} {
		b.Run(tc.name, func(b *testing.B) {
			var steps int
			benchOp(b, tc.run.op(&steps))
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			b.ReportMetric(float64(steps)/float64(b.N)/float64(tc.run.slots), "steps/slot")
		})
	}
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

// appendSinceOp reads a 4-entry delta into a reused scratch buffer (rsm
// reuses per-state delta buffers).
func appendSinceOp(tb testing.TB) func() {
	v := benchVersioned()
	base := v.Version() - 4
	dst, _, _ := v.AppendSince(nil, 0)
	return func() {
		var full bool
		dst, _, full = v.AppendSince(dst[:0], base)
		if full || len(dst) != 4 {
			tb.Fatalf("AppendSince(%d) = %d entries, full=%v", base, len(dst), full)
		}
	}
}

// snapshotFallbackOp is AppendSince from a base below the compaction
// floor, which falls back to the full snapshot.
func snapshotFallbackOp(tb testing.TB) func() {
	v := benchVersioned()
	v.Compact(v.Version()) // force every base below the floor
	dst, _, _ := v.AppendSince(nil, 1)
	return func() {
		var full bool
		dst, _, full = v.AppendSince(dst[:0], 1)
		if !full || len(dst) != v.Len() {
			tb.Fatalf("AppendSince(1) = %d entries, full=%v", len(dst), full)
		}
	}
}

// applyRedundantOp applies a delta the store already holds: it must dedup
// without mutating.
func applyRedundantOp(tb testing.TB) func() {
	v := benchVersioned()
	d := v.Snapshot()
	return func() {
		if novel := v.Apply(d); novel != 0 {
			tb.Fatalf("redundant apply found %d novel entries", novel)
		}
	}
}

// encodeDeltaOp encodes a slot-wrapped delta LEAD into a reused buffer.
func encodeDeltaOp(tb testing.TB) func() {
	v := benchVersioned()
	d := v.DeltaSince(v.Version() - 8)
	// Box the payload once: the codec itself is allocation-free, and in
	// the real send path the payload is already behind the interface.
	var pl model.Payload = rsm.SlotPayload{Slot: 2, Inner: consensus.LeadDeltaPayload{K: 3, V: 1, Delta: d}}
	buf, err := wire.AppendPayload(nil, pl)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		var err error
		if buf, err = wire.AppendPayload(buf[:0], pl); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkHistoryDelta measures the versioned-store inner loops the
// shared log hits on every send and delivery.
func BenchmarkHistoryDelta(b *testing.B) {
	b.Run("append-since", func(b *testing.B) { benchOp(b, appendSinceOp) })
	b.Run("snapshot-fallback", func(b *testing.B) { benchOp(b, snapshotFallbackOp) })
	b.Run("apply-redundant", func(b *testing.B) { benchOp(b, applyRedundantOp) })
	b.Run("encode-delta", func(b *testing.B) { benchOp(b, encodeDeltaOp) })
}
