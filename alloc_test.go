// The hot-path allocation gate (DESIGN.md §8): plain `go test` pins the
// allocs/op of every hot-path benchmark, so a regression fails tier-1 and
// every CI job. To change a ceiling on purpose, run
// `go test -run 'TestHotPathAllocs|TestSimStepSteadyStateAllocFree' -v .`,
// which logs each row's measurement, and edit the row.
package nuconsensus_test

import (
	"testing"

	"nuconsensus/internal/explore"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// simStepCases are BenchmarkSimStep's sub-benchmarks, each with the
// allocations per step TestSimStepSteadyStateAllocFree allows it. A
// messaging step allocates 3.99 objects (DESIGN.md §8 names them), so a
// fifth per step fails.
var simStepCases = []struct {
	name    string
	aut     model.Automaton
	bus     func() *obs.Bus
	perStep float64
}{
	{"idle", idleAutomaton{n: 4}, noBus, 0},
	{"idle-bus", idleAutomaton{n: 4}, metricsBus, 0},
	{"messaging", pingAutomaton{n: 4}, noBus, 4},
	{"messaging-bus", pingAutomaton{n: 4}, metricsBus, 4},
}

func noBus() *obs.Bus      { return nil }
func metricsBus() *obs.Bus { return obs.NewBus(nil, obs.NewRegistry()) }

// TestSimStepSteadyStateAllocFree pins the step loop's allocations per
// step: the difference between two runs that differ only in step count,
// divided by that difference. A per-run total would also count setup, and
// go test -benchmem truncates allocs/op to an integer; the sim engine is
// single-goroutine, so the counts are exact, not statistical.
func TestSimStepSteadyStateAllocFree(t *testing.T) {
	const base, extra = 2000, 10000
	for _, tc := range simStepCases {
		t.Run(tc.name, func(t *testing.T) {
			bus := tc.bus()
			runAllocs := func(steps int) float64 {
				return testing.AllocsPerRun(3, func() { runSteps(t, tc.aut, bus, steps) })
			}
			short, long := runAllocs(base), runAllocs(base+extra)
			perStep := (long - short) / extra
			t.Logf("%.4g allocs/step (short=%g, long=%g)", perStep, short, long)
			if perStep > tc.perStep {
				t.Errorf("step loop allocates %.4g per step, ceiling %g (short=%g, long=%g)",
					perStep, tc.perStep, short, long)
			}
		})
	}
}

// allocSlack is how far above its pinned count a nonzero row may go, and
// the factor it may fall below it.
const allocSlack = 1.10

// TestHotPathAllocs pins one iteration of every other hot-path benchmark:
// each row runs the benchmark's own hotOp under testing.AllocsPerRun. A
// row pinned at 0 fails on any allocation; a nonzero row fails above its
// pinned count × allocSlack, and below pinned ÷ allocSlack, so a pin cannot
// go stale silently: a row that got cheaper is re-pinned. Under -race, sync.Pool drops items at random
// (fmt's printer cache among them), so counts that include pool refills
// grow there: the nonzero rows skip, and every zero row still holds.
func TestHotPathAllocs(t *testing.T) {
	for _, r := range []struct {
		name   string
		runs   int     // testing.AllocsPerRun iterations
		pinned float64 // allocs/op measured when the row was last set
		op     hotOp
	}{
		{"WireEncode/heartbeat", 100, 0, wireEncodeOp("heartbeat")},
		{"WireEncode/lead-hist", 100, 0, wireEncodeOp("lead-hist")},
		{"WireEncode/lead-delta", 100, 0, wireEncodeOp("lead-delta")},
		{"WireEncode/bundle", 100, 0, wireEncodeOp("bundle")},
		{"WireEncode/dag64", 100, 0, wireEncodeOp("dag64")},
		{"WireEncode/link-bundle", 100, 0, wireLinkEncodeOp},
		{"WireDecode/heartbeat", 100, 0, wireDecodeOp("heartbeat")},
		{"WireDecode/report", 100, 1, wireDecodeOp("report")},
		{"WireDecode/lead-delta", 100, 3, wireDecodeOp("lead-delta")},
		{"WireDecode/bundle", 100, 7, wireDecodeOp("bundle")},
		{"WireDecode/dag64", 100, 92, wireDecodeOp("dag64")},
		{"WireDecode/link-bundle", 100, 7, wireLinkDecodeOp},
		{"WirePeek", 100, 0, wirePeekOp},
		{"WirePeek/link-bundle", 100, 0, wireLinkPeekOp},
		{"Inbox/put-take", 100, 0, inboxPutTakeOp},
		{"Inbox/superseding-flood", 100, 0, inboxFloodOp},
		{"Inbox/put-batch", 100, 0, inboxPutBatchOp},
		{"HistoryDelta/append-since", 100, 0, appendSinceOp},
		{"HistoryDelta/snapshot-fallback", 100, 0, snapshotFallbackOp},
		{"HistoryDelta/apply-redundant", 100, 0, applyRedundantOp},
		{"HistoryDelta/encode-delta", 100, 0, encodeDeltaOp},
		{"ServeBatch/encode64", 100, 0, encode64Op},
		{"ServeBatch/decode64", 100, 2, decode64Op},
		{"ServeBatch/apply8x8", 100, 65, apply8x8Op},
		{"SessionDedup/hit", 100, 0, dedupHitOp},
		{"SessionDedup/record320", 100, 18, record320Op},
		{"LogLongRun/shared", 20, 3287, logShared.op(new(int))},
		{"LogLongRun/shared-crash", 20, 11474, logSharedCrash.op(new(int))},
		// Measured 1246015–1246031. The spread is GC timing: each of the
		// run's ≈ 25 GC cycles empties sync.Pools, fmt's printer cache
		// among them (stateKey and messageEncoding print through fmt), and
		// how many refills follow depends on when the cycles land. Under
		// GOGC=off the count is 1245956 on every run.
		{"ExploreFrontier", 1, 1246031, exploreFrontierOp(new(explore.Result))},
	} {
		t.Run(r.name, func(t *testing.T) {
			if raceEnabled && r.pinned != 0 {
				t.Skip("sync.Pool drops items under -race, so nonzero counts grow")
			}
			ceiling, floor := r.pinned*allocSlack, r.pinned/allocSlack
			got := testing.AllocsPerRun(r.runs, r.op(t))
			t.Logf("%.0f allocs/op (pinned %.0f, floor %.1f, ceiling %.1f)", got, r.pinned, floor, ceiling)
			if got > ceiling {
				t.Errorf("%.0f allocs/op, ceiling %.1f (pinned %.0f × %g)", got, ceiling, r.pinned, allocSlack)
			}
			if got < floor {
				t.Errorf("%.0f allocs/op, floor %.1f (pinned %.0f ÷ %g): the row got cheaper; re-pin it to the measurement", got, floor, r.pinned, allocSlack)
			}
		})
	}
}
