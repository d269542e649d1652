package substrate_test

import (
	"context"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/substrate"
	"nuconsensus/internal/transform"
)

// TestOracleFreeOnGoroutineRuntime is the most "real system" execution in
// the repository: actual goroutines exchanging heartbeats and threshold
// rounds over channels, with crash injection, composing into A_nuc — no
// failure-detector oracle anywhere, no deterministic scheduler. Only
// safety is asserted unconditionally; liveness gets a generous budget.
func TestOracleFreeOnGoroutineRuntime(t *testing.T) {
	decidedRuns := 0
	for seed := int64(1); seed <= 6; seed++ {
		n, tf := 5, 2
		pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 400, 3: 700})
		aut := transform.NewOracleFree(
			hb.NewOmega(n, 0, 0),
			transform.NewScratchSigmaNuPlus(n, tf),
			consensus.NewANuc([]int{0, 1, 0, 1, 0}),
		)
		res, err := async.Run(context.Background(), aut, fd.Null, pattern, substrate.Options{
			Seed:            seed,
			MaxSteps:        300000,
			StopWhenDecided: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := check.OutcomeFromConfig(res.Config)
		if err := out.Validity(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := out.NonuniformAgreement(pattern); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if res.Decided {
			decidedRuns++
		}
	}
	// The concurrent runtime has no timeliness guarantee, but in practice
	// the adaptive timeouts converge; require most runs to decide.
	if decidedRuns < 4 {
		t.Fatalf("only %d/6 oracle-free runs decided", decidedRuns)
	}
	t.Logf("%d/6 oracle-free runs decided", decidedRuns)
}
