package substrate_test

import (
	"context"
	"reflect"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/substrate"
)

// async is the backend under test, fetched the way run.go and the CLIs do.
var async = func() substrate.Substrate {
	s, err := substrate.Get("async")
	if err != nil {
		panic(err)
	}
	return s
}()

// TestAsyncNeedsNoBackendImport: "async" is registered by package substrate
// itself, so the Get above finds it whatever else the binary links (this
// test binary also links sim and netrun, for the golden test — hence the
// check on where the type lives rather than on the registry's size).
func TestAsyncNeedsNoBackendImport(t *testing.T) {
	if pkg := reflect.TypeOf(async).PkgPath(); pkg != "nuconsensus/internal/substrate" {
		t.Fatalf("async backend lives in %q, want package substrate", pkg)
	}
	if async.Name() != "async" || async.Deterministic() {
		t.Fatalf("Name=%q Deterministic=%v", async.Name(), async.Deterministic())
	}
}

func TestANucOnGoroutineRuntime(t *testing.T) {
	n := 5
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{2: 200, 4: 350})
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 500, 11),
		Second: fd.NewSigmaNuPlus(pattern, 500, 11),
	}
	res, err := async.Run(context.Background(), consensus.NewANuc([]int{1, 0, 1, 0, 1}), hist, pattern, substrate.Options{
		Seed:            42,
		MaxSteps:        200000,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := check.OutcomeFromConfig(res.Config)
	// Safety always.
	if err := out.Validity(); err != nil {
		t.Fatal(err)
	}
	if err := out.NonuniformAgreement(pattern); err != nil {
		t.Fatal(err)
	}
	// Liveness under the generous budget.
	if !res.Decided {
		t.Fatalf("not all correct processes decided within %d ticks", res.Ticks)
	}
	t.Logf("decided %v after %d ticks", out.Decisions, res.Ticks)
}

func TestMRMajorityOnGoroutineRuntime(t *testing.T) {
	n := 5
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{0: 100})
	hist := fd.NewOmega(pattern, 400, 3)
	res, err := async.Run(context.Background(), consensus.NewMRMajority([]int{9, 9, 4, 4, 4}), hist, pattern, substrate.Options{
		Seed:            7,
		MaxSteps:        200000,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := check.OutcomeFromConfig(res.Config)
	if err := out.Validity(); err != nil {
		t.Fatal(err)
	}
	if err := out.UniformAgreement(); err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("not all correct processes decided within %d ticks", res.Ticks)
	}
	t.Logf("decided %v after %d ticks", out.Decisions, res.Ticks)
}
