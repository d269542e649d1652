package explore

import (
	"fmt"
	"reflect"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// disagreeScenario is a deliberately broken target that violates agreement
// quickly: two processes run the naive MR adaptation with disjoint
// singleton quorums and each trusting itself as leader, so each decides its
// own proposal alone (4 steps per process, a violation at depth 8). Cheap
// enough for cross-checks that run the exploration several times.
func disagreeScenario() Options {
	pattern := model.NewFailurePattern(2)
	quorum := map[model.ProcessID]model.ProcessSet{0: model.SetOf(0), 1: model.SetOf(1)}
	hist := fd.HistoryFunc(func(p model.ProcessID, t model.Time) model.FDValue {
		return fd.PairValue{
			First:  fd.LeaderValue{Leader: p},
			Second: fd.QuorumValue{Quorum: quorum[p]},
		}
	})
	return Options{
		Automaton: consensus.NewMRNaiveNu([]int{0, 1}),
		Pattern:   pattern,
		Menu:      HistoryMenu{H: hist},
		Bound:     8,
		Property: func(c *model.Configuration) error {
			return check.SafetyViolation(c, pattern)
		},
		StopAtViolation: true,
	}
}

func TestChoiceOrderAndString(t *testing.T) {
	lam := Choice{P: 1, From: model.NoProcess, FD: 0}
	del := Choice{P: 1, From: 0, FD: 2}
	if got := lam.String(); got != "p1/0" {
		t.Errorf("λ choice renders %q", got)
	}
	if got := del.String(); got != "p1<p0/2" {
		t.Errorf("delivery choice renders %q", got)
	}
	if !choiceLess(lam, del) {
		t.Error("λ must sort before deliveries of the same process")
	}
	if !choiceLess(Choice{P: 0, From: 1, FD: 5}, Choice{P: 1, From: model.NoProcess, FD: 0}) {
		t.Error("process id must dominate the order")
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := Explore(Options{}); err == nil {
		t.Error("missing automaton/pattern/menu must error")
	}
	o := disagreeScenario()
	o.Bound = 0
	if _, err := Explore(o); err == nil {
		t.Error("non-positive bound must error")
	}
	o = disagreeScenario()
	o.Pattern = model.NewFailurePattern(3)
	if _, err := Explore(o); err == nil {
		t.Error("pattern/automaton size mismatch must error")
	}
}

func TestCanonicalEncoding(t *testing.T) {
	// Map iteration order must not leak into the encoding.
	m1 := map[int]string{1: "a", 2: "b", 3: "c"}
	m2 := map[int]string{3: "c", 2: "b", 1: "a"}
	if canonicalString(m1) != canonicalString(m2) {
		t.Error("equal maps must encode equally")
	}
	// Nil and empty slices are the same state.
	type s struct{ Xs []int }
	if canonicalString(s{}) != canonicalString(s{Xs: []int{}}) {
		t.Error("nil and empty slices must encode equally")
	}
	if canonicalString(s{Xs: []int{1}}) == canonicalString(s{Xs: []int{2}}) {
		t.Error("different slices must encode differently")
	}
	// Pointers are chased, not printed as addresses.
	x, y := 7, 7
	if canonicalString(&x) != canonicalString(&y) {
		t.Error("pointers to equal values must encode equally")
	}
}

func TestStateKeyCommutesOnDistinctLinks(t *testing.T) {
	// Two orders of the same independent steps must fingerprint equally:
	// run the disagree scenario two λ-steps deep with p0 first and p1
	// first; the resulting configurations differ only in message arrival
	// order, which stateKey deliberately ignores.
	o := disagreeScenario()
	a, ok := Execute(o, []Choice{{P: 0, From: model.NoProcess}, {P: 1, From: model.NoProcess}})
	if !ok {
		t.Fatal("schedule a invalid")
	}
	b, ok := Execute(o, []Choice{{P: 1, From: model.NoProcess}, {P: 0, From: model.NoProcess}})
	if !ok {
		t.Fatal("schedule b invalid")
	}
	hashes := func(c *model.Configuration) []uint64 {
		hs := make([]uint64, len(c.States))
		for p := range hs {
			hs[p] = hash64(canonicalString(c.States[p]))
		}
		return hs
	}
	ka := stateKey(a, 2, hashes(a), encCache{})
	kb := stateKey(b, 2, hashes(b), encCache{})
	if ka != kb {
		t.Errorf("commuted independent steps got keys %s vs %s", ka, kb)
	}
	// The same configuration at a different depth is a different state.
	if kc := stateKey(a, 3, hashes(a), encCache{}); kc == ka {
		t.Error("depth must be part of the fingerprint")
	}
}

func TestDisagreeHuntAndShrink(t *testing.T) {
	o := disagreeScenario()
	res, err := Explore(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 || res.Counterexample == nil {
		t.Fatalf("expected a violation, got %+v", res)
	}
	cex := res.Counterexample.Path
	if len(cex) != 8 {
		t.Errorf("shallowest violation should need 8 steps, got %d: %v", len(cex), cex)
	}
	if !violates(o, cex) {
		t.Fatal("reported counterexample does not violate under Execute")
	}
	shrunk := Shrink(o, cex)
	if !violates(o, shrunk) {
		t.Fatal("shrunk schedule does not violate")
	}
	if len(shrunk) > len(cex) {
		t.Errorf("shrinking grew the schedule: %d -> %d", len(cex), len(shrunk))
	}
	// Shrinking is idempotent: a minimal schedule stays put.
	again := Shrink(o, shrunk)
	if !reflect.DeepEqual(again, shrunk) {
		t.Errorf("Shrink not idempotent: %v then %v", shrunk, again)
	}
	// Minimality: no single deletion still violates.
	for i := range shrunk {
		cand := append(append([]Choice(nil), shrunk[:i]...), shrunk[i+1:]...)
		if violates(o, cand) {
			t.Errorf("deleting step %d (%v) still violates: not minimal", i, shrunk[i])
		}
	}
}

func TestShrinkPanicsOnNonViolating(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Shrink must panic on a non-violating schedule")
		}
	}()
	o := disagreeScenario()
	Shrink(o, []Choice{{P: 0, From: model.NoProcess}})
}

// TestPORPreservesStates cross-checks the sleep-set reduction: it may only
// skip redundant edges, so the visited state set, the violation count, the
// depth and the counterexample must be identical with the reduction off —
// while the executed edge count must actually shrink.
func TestPORPreservesStates(t *testing.T) {
	for _, sc := range []struct {
		label string
		o     Options
	}{
		{"disagree", disagreeScenario()},
		{"anuc-ff", func() Options {
			o := VerifyANuc(3, 0)[0].Opts
			o.Bound = 5
			return o
		}()},
	} {
		on := sc.o
		off := sc.o
		off.DisablePOR = true
		ron, err := Explore(on)
		if err != nil {
			t.Fatal(err)
		}
		roff, err := Explore(off)
		if err != nil {
			t.Fatal(err)
		}
		if ron.States != roff.States || ron.Violations != roff.Violations || ron.Depth != roff.Depth {
			t.Errorf("%s: POR changed verdicts: on=%+v off=%+v", sc.label, ron, roff)
		}
		if !reflect.DeepEqual(ron.Counterexample, roff.Counterexample) {
			t.Errorf("%s: POR changed the counterexample", sc.label)
		}
		if ron.Slept == 0 || ron.Edges >= roff.Edges {
			t.Errorf("%s: POR slept %d and executed %d edges vs %d without: no reduction",
				sc.label, ron.Slept, ron.Edges, roff.Edges)
		}
	}
}

// TestStutterElimPreservesViolations cross-checks stutter elimination: it
// prunes states, but a violation is reachable with it exactly when one is
// reachable without it, and the lexicographically least shallowest
// counterexample contains no stutters, so it is identical either way.
func TestStutterElimPreservesViolations(t *testing.T) {
	on := disagreeScenario()
	off := disagreeScenario()
	off.DisableStutterElim = true
	ron, err := Explore(on)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Explore(off)
	if err != nil {
		t.Fatal(err)
	}
	if (ron.Violations == 0) != (roff.Violations == 0) {
		t.Errorf("stutter elimination changed the verdict: on=%d off=%d violations", ron.Violations, roff.Violations)
	}
	if !reflect.DeepEqual(ron.Counterexample, roff.Counterexample) {
		t.Errorf("stutter elimination changed the counterexample:\n%+v\nvs\n%+v", ron.Counterexample, roff.Counterexample)
	}
	if ron.Stutters == 0 || ron.States >= roff.States {
		t.Errorf("stutter elimination pruned %d stutters, %d states vs %d without: no reduction",
			ron.Stutters, ron.States, roff.States)
	}
}

// TestVerifyANucQuick verifies A_nuc at bound 6 on every E16 scenario, and
// checks a second property on every state it reaches: Blocked is a stutter
// (§2.4; Lynch–Sastry's rule that an action happens only when the state
// enables it). For every process p and menu value d, a state that says
// Blocked(d) must, on a λ-step under d, send nothing and keep its canonical
// encoding — the equality stutter elimination prunes on, and what lets
// rsm's Idle skip that step. A stutter Blocked does not claim is a missed
// skip, not a bug; the sweep logs how many it met. Each process state is
// checked once, however many configurations share it.
func TestVerifyANucQuick(t *testing.T) {
	type blocker interface{ Blocked(model.FDValue) bool }
	type procState struct {
		p model.ProcessID
		s string
	}
	for _, sc := range VerifyANuc(3, 1) {
		o := sc.Opts
		o.Bound = 6
		safety, missed, seen := o.Property, 0, map[procState]bool{}
		o.Property = func(c *model.Configuration) error {
			if err := safety(c); err != nil {
				return err
			}
			for i, s := range c.States {
				p, before := model.ProcessID(i), canonicalString(s)
				if seen[procState{p, before}] {
					continue
				}
				for _, d := range o.Menu.Values(p, 1) { // the menu is constant in t
					next, sent := o.Automaton.Step(p, s.CloneState(), nil, d)
					stutter := len(sent) == 0 && canonicalString(next) == before
					if blocked := s.(blocker).Blocked(d); blocked && !stutter {
						return fmt.Errorf("%s says Blocked(%v), but a λ-step under it is no stutter (sends %v)", p, d, sent)
					} else if !blocked && stutter {
						missed++
					}
				}
				seen[procState{p, before}] = true
			}
			return nil
		}
		res, err := Explore(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violations != 0 {
			t.Errorf("%s: A_nuc violated a property: %+v", sc.Label, res.Counterexample)
		}
		t.Logf("%s: %d process states, %d λ-stutters Blocked does not claim", sc.Label, len(seen), missed)
		if res.Reduction < 2 {
			t.Errorf("%s: reduction %f < 2x over naive enumeration", sc.Label, res.Reduction)
		}
		if !res.Truncated {
			t.Errorf("%s: expected a truncated exploration at bound %d", sc.Label, o.Bound)
		}
	}
}

func TestExecuteSemantics(t *testing.T) {
	// FD index out of a HistoryMenu's singleton range invalidates.
	o := disagreeScenario()
	if _, ok := Execute(o, []Choice{{P: 0, From: model.NoProcess, FD: 1}}); ok {
		t.Error("FD index beyond the menu must invalidate the schedule")
	}
	// A crashed process's entry is skipped without consuming a tick: with
	// p1 crashed from t=1, a p1 entry wedged between two p0 steps must
	// leave the p0 steps at times 1 and 2.
	crashed := o
	crashed.Pattern = model.PatternFromCrashes(2, map[model.ProcessID]model.Time{1: 1})
	a, ok := Execute(crashed, []Choice{
		{P: 0, From: model.NoProcess},
		{P: 1, From: model.NoProcess},
		{P: 0, From: 0},
	})
	if !ok {
		t.Fatal("crash-skipping schedule invalid")
	}
	b, ok := Execute(crashed, []Choice{
		{P: 0, From: model.NoProcess},
		{P: 0, From: 0},
	})
	if !ok {
		t.Fatal("reference schedule invalid")
	}
	if canonicalString(a.States) != canonicalString(b.States) {
		t.Error("crashed-process entry must be skipped without consuming a tick")
	}
	// A delivery on an empty link degrades to λ rather than failing.
	if _, ok := Execute(o, []Choice{{P: 0, From: 1, FD: 0}}); !ok {
		t.Error("empty-link delivery must degrade to λ, not invalidate")
	}
}

func TestPinnedHistory(t *testing.T) {
	menu := PairMenu{
		Leaders: func(model.ProcessID, model.Time) []model.ProcessID { return []model.ProcessID{0, 1} },
		Quorums: func(model.ProcessID, model.Time) []model.ProcessSet {
			return []model.ProcessSet{model.SetOf(0), model.SetOf(1)}
		},
	}
	fallback := fd.HistoryFunc(func(p model.ProcessID, t model.Time) model.FDValue {
		return menu.Values(p, t)[0]
	})
	path := []Choice{
		{P: 0, From: model.NoProcess, FD: 3}, // t=1: leader 1, quorum {1}
		{P: 1, From: model.NoProcess, FD: 1}, // t=2: leader 0, quorum {1}
	}
	h := PinnedHistory(menu, path, fallback)
	if got := h.Output(0, 1); !reflect.DeepEqual(got, menu.Values(0, 1)[3]) {
		t.Errorf("pinned (p0,t1) = %v, want menu entry 3", got)
	}
	if got := h.Output(1, 2); !reflect.DeepEqual(got, menu.Values(1, 2)[1]) {
		t.Errorf("pinned (p1,t2) = %v, want menu entry 1", got)
	}
	// Unpinned points fall back to the first menu entry.
	if got := h.Output(1, 1); !reflect.DeepEqual(got, menu.Values(1, 1)[0]) {
		t.Errorf("unpinned (p1,t1) = %v, want fallback", got)
	}
	// Out-of-range FD indices panic rather than silently mispinning.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PinnedHistory must panic on an FD index outside the menu")
			}
		}()
		PinnedHistory(menu, []Choice{{P: 0, From: model.NoProcess, FD: 9}}, fallback)
	}()
}
