package substrate_test

// The cross-substrate golden test: the whole point of the substrate layer
// is that the same Automaton values behave identically — in the sense of
// the paper's claims, not step-for-step — on the deterministic simulator,
// the goroutine runtime and the TCP mesh. This runs the E1 scenario
// (Theorem 6.27: A_nuc with (Ω, Σν+)) at n=3..5 on every registered
// backend with the same seeds and compares the outcome verdicts: every
// run must decide, satisfy validity and satisfy nonuniform agreement.
// The concurrent substrates are compared on outcome, not step order —
// their decided values may legitimately differ from the simulator's,
// because nonuniform consensus allows different admissible runs to decide
// different proposed values.

import (
	"context"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/substrate"

	// Register the other two backends; async comes with package substrate.
	_ "nuconsensus/internal/netrun"
	_ "nuconsensus/internal/sim"
)

// goldenCase is one E1 unit: n processes, f of them crashing, mixed binary
// proposals.
type goldenCase struct {
	n, f  int
	seeds []int64
}

func (gc goldenCase) pattern() *model.FailurePattern {
	crashes := map[model.ProcessID]model.Time{}
	for i := 0; i < gc.f; i++ {
		crashes[model.ProcessID(gc.n-1-i)] = model.Time(30 + 25*i)
	}
	return model.PatternFromCrashes(gc.n, crashes)
}

func (gc goldenCase) proposals() []int {
	props := make([]int, gc.n)
	for i := range props {
		props[i] = i % 2
	}
	return props
}

// verdict is the substrate-comparable outcome of one run.
type verdict struct {
	Decided   bool
	Validity  bool
	Agreement bool
}

func runGolden(t *testing.T, name string, gc goldenCase, seed int64) verdict {
	t.Helper()
	sub, err := substrate.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	pattern := gc.pattern()
	hist := fd.PairHistory{
		First:  fd.NewOmega(pattern, 150, seed),
		Second: fd.NewSigmaNuPlus(pattern, 150, seed),
	}
	maxSteps := 30000
	if !sub.Deterministic() {
		// The concurrent substrates' shared clock ticks for every process's
		// steps; give them the generous budget their own tests use.
		maxSteps = 200000
	}
	res, err := sub.Run(context.Background(), consensus.NewANuc(gc.proposals()), hist, pattern, substrate.Options{
		Seed:            seed,
		MaxSteps:        maxSteps,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatalf("%s n=%d f=%d seed=%d: %v", name, gc.n, gc.f, seed, err)
	}
	out := check.OutcomeFromConfig(res.Config)
	return verdict{
		Decided:   res.Decided,
		Validity:  out.Validity() == nil,
		Agreement: out.NonuniformAgreement(pattern) == nil,
	}
}

// TestCrossSubstrateGolden runs E1's scenario on every registered substrate
// with the same seeds and requires identical outcome verdicts.
func TestCrossSubstrateGolden(t *testing.T) {
	names := substrate.Names()
	if len(names) < 3 {
		t.Fatalf("expected sim, async and tcp to be registered, got %v", names)
	}
	want := verdict{Decided: true, Validity: true, Agreement: true}
	for _, gc := range []goldenCase{
		{n: 3, f: 1, seeds: []int64{1, 2}},
		{n: 4, f: 1, seeds: []int64{3, 4}},
		{n: 5, f: 2, seeds: []int64{5, 6}},
	} {
		for _, seed := range gc.seeds {
			for _, name := range names {
				if got := runGolden(t, name, gc, seed); got != want {
					t.Errorf("substrate %q n=%d f=%d seed=%d: verdict %+v, want %+v",
						name, gc.n, gc.f, seed, got, want)
				}
			}
		}
	}
}

// TestSimSubstrateIsReproducible pins the Deterministic contract: two sim
// runs with equal inputs return identical decisions and step counts, and
// the registry reports determinism only for sim.
func TestSimSubstrateIsReproducible(t *testing.T) {
	gc := goldenCase{n: 4, f: 1}
	sub, err := substrate.Get("sim")
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Deterministic() {
		t.Fatal("sim must report Deterministic")
	}
	for _, name := range []string{"async", "tcp"} {
		s, err := substrate.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Deterministic() {
			t.Fatalf("%s must not report Deterministic", name)
		}
	}
	run := func() (*substrate.Result, error) {
		pattern := gc.pattern()
		hist := fd.PairHistory{
			First:  fd.NewOmega(pattern, 150, 7),
			Second: fd.NewSigmaNuPlus(pattern, 150, 7),
		}
		return sub.Run(context.Background(), consensus.NewANuc(gc.proposals()), hist, pattern, substrate.Options{
			Seed: 7, MaxSteps: 30000, StopWhenDecided: true,
		})
	}
	r1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Steps != r2.Steps || r1.Ticks != r2.Ticks {
		t.Fatalf("sim not reproducible: %d/%d steps vs %d/%d", r1.Steps, r1.Ticks, r2.Steps, r2.Ticks)
	}
	if len(r1.Decisions) != len(r2.Decisions) {
		t.Fatalf("decision sets differ: %v vs %v", r1.Decisions, r2.Decisions)
	}
	for p, v := range r1.Decisions {
		if r2.Decisions[p] != v {
			t.Fatalf("decisions differ at %v: %v vs %v", p, r1.Decisions, r2.Decisions)
		}
	}
}
