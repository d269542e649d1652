package check_test

import (
	"reflect"
	"strings"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

func qs(entries ...check.QuorumSample) []check.QuorumSample { return entries }

func q(p model.ProcessID, t model.Time, members ...model.ProcessID) check.QuorumSample {
	return check.QuorumSample{P: p, T: t, Q: model.SetOf(members...)}
}

func TestIntersection(t *testing.T) {
	good := qs(q(0, 1, 0, 1), q(1, 2, 1, 2), q(2, 3, 0, 1, 2))
	if err := check.Intersection(good); err != nil {
		t.Errorf("intersecting samples rejected: %v", err)
	}
	bad := qs(q(0, 1, 0, 1), q(1, 2, 2, 3))
	if err := check.Intersection(bad); err == nil {
		t.Error("disjoint samples accepted")
	}
	// A single empty quorum is self-disjoint (∅ ∩ ∅ = ∅).
	if err := check.Intersection(qs(q(0, 1))); err == nil {
		t.Error("empty quorum must violate intersection with itself")
	}
}

func TestNonuniformIntersection(t *testing.T) {
	pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{3: 5})
	// Faulty p3's junk quorum does not matter.
	samples := qs(q(0, 1, 0, 1), q(1, 2, 1, 2), q(3, 3, 3))
	if err := check.NonuniformIntersection(samples, pattern); err != nil {
		t.Errorf("junk at faulty process rejected: %v", err)
	}
	// But disjoint quorums at two correct processes do.
	bad := qs(q(0, 1, 0), q(1, 2, 1))
	if err := check.NonuniformIntersection(bad, pattern); err == nil {
		t.Error("disjoint correct quorums accepted")
	}
}

func TestCompleteness(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	samples := qs(
		q(0, 3, 0, 1, 2), // noisy before horizon: fine
		q(0, 20, 0, 1),
		q(1, 21, 0, 1),
		q(2, 2, 2), // faulty process: exempt
	)
	if err := check.Completeness(samples, pattern, 10); err != nil {
		t.Errorf("rejected: %v", err)
	}
	bad := append(samples, q(1, 30, 1, 2))
	if err := check.Completeness(bad, pattern, 10); err == nil {
		t.Error("faulty member after horizon accepted")
	}
	// An empty suffix is an error, not a pass.
	if err := check.Completeness(samples, pattern, 100); err == nil {
		t.Error("empty suffix must not vacuously pass")
	}
}

func TestSelfInclusion(t *testing.T) {
	if err := check.SelfInclusion(qs(q(0, 1, 0, 1), q(1, 1, 1))); err != nil {
		t.Errorf("rejected: %v", err)
	}
	if err := check.SelfInclusion(qs(q(0, 1, 1, 2))); err == nil {
		t.Error("owner-free quorum accepted")
	}
}

func TestConditionalNonintersection(t *testing.T) {
	pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{2: 5, 3: 5})
	// p3's quorum {p3} is disjoint from correct p0's {p0,p1} but all-faulty: OK.
	good := qs(q(0, 1, 0, 1), q(3, 1, 3))
	if err := check.ConditionalNonintersection(good, pattern); err != nil {
		t.Errorf("rejected: %v", err)
	}
	// {p1,p3} disjoint from... {p0}? craft: correct p0 outputs {p0}; p3
	// outputs {p1,p3} which is disjoint from {p0} but contains correct p1.
	bad := qs(q(0, 1, 0), q(3, 1, 1, 3))
	if err := check.ConditionalNonintersection(bad, pattern); err == nil {
		t.Error("disjoint quorum containing a correct process accepted")
	}
}

func TestOmegaChecker(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	ls := []check.LeaderSample{
		{P: 0, T: 1, L: 2}, // noise before horizon
		{P: 0, T: 20, L: 0},
		{P: 1, T: 21, L: 0},
	}
	if err := check.Omega(ls, pattern, 10); err != nil {
		t.Errorf("rejected: %v", err)
	}
	t.Run("faulty leader after horizon", func(t *testing.T) {
		bad := append(ls, check.LeaderSample{P: 1, T: 30, L: 2})
		if err := check.Omega(bad, pattern, 10); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("two leaders after horizon", func(t *testing.T) {
		bad := append(ls, check.LeaderSample{P: 1, T: 30, L: 1})
		if err := check.Omega(bad, pattern, 10); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("empty suffix", func(t *testing.T) {
		if err := check.Omega(ls, pattern, 100); err == nil {
			t.Error("vacuous pass")
		}
	})
	t.Run("no correct processes", func(t *testing.T) {
		all := model.PatternFromCrashes(2, map[model.ProcessID]model.Time{0: 1, 1: 1})
		if err := check.Omega(nil, all, 0); err != nil {
			t.Errorf("Ω is vacuous with no correct process: %v", err)
		}
	})
}

func TestProjectionErrors(t *testing.T) {
	samples := []check.Sample{{P: 0, T: 1, Val: fd.NullValue{}}}
	if _, err := check.QuorumSamples(samples); err == nil {
		t.Error("non-quorum sample must error")
	}
	if _, err := check.LeaderSamples(samples); err == nil {
		t.Error("non-leader sample must error")
	}
}

func TestLastCompletenessViolation(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	samples := []check.Sample{
		{P: 0, T: 3, Val: fd.QuorumValue{Quorum: model.SetOf(0, 2)}}, // violation at 3
		{P: 0, T: 9, Val: fd.QuorumValue{Quorum: model.SetOf(0, 1)}}, // clean
		{P: 1, T: 7, Val: fd.QuorumValue{Quorum: model.SetOf(1, 2)}}, // violation at 7
		{P: 2, T: 50, Val: fd.QuorumValue{Quorum: model.SetOf(2)}},   // faulty: exempt
	}
	got, err := check.LastCompletenessViolation(samples, pattern)
	if err != nil || got != 7 {
		t.Errorf("LastCompletenessViolation = %d, %v; want 7", got, err)
	}
	clean := samples[1:2]
	got, err = check.LastCompletenessViolation(clean, pattern)
	if err != nil || got != -1 {
		t.Errorf("clean record horizon = %d, want -1", got)
	}
}

func TestConsensusOutcomeCheckers(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	base := check.ConsensusOutcome{
		Proposals: map[model.ProcessID]int{0: 1, 1: 0, 2: 0},
		Decisions: map[model.ProcessID]int{0: 1, 1: 1},
	}
	if err := base.NonuniformConsensus(pattern); err != nil {
		t.Fatalf("valid outcome rejected: %v", err)
	}

	t.Run("termination", func(t *testing.T) {
		o := base
		o.Decisions = map[model.ProcessID]int{0: 1}
		if err := o.Termination(pattern); err == nil || !strings.Contains(err.Error(), "did not decide") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("validity", func(t *testing.T) {
		o := base
		o.Decisions = map[model.ProcessID]int{0: 9, 1: 9}
		if err := o.Validity(); err == nil {
			t.Error("unproposed value accepted")
		}
	})
	t.Run("nonuniform agreement ignores faulty", func(t *testing.T) {
		o := base
		o.Decisions = map[model.ProcessID]int{0: 1, 1: 1, 2: 0} // faulty p2 differs
		if err := o.NonuniformAgreement(pattern); err != nil {
			t.Errorf("faulty divergence must be allowed: %v", err)
		}
		if err := o.UniformAgreement(); err == nil {
			t.Error("uniform agreement must reject faulty divergence")
		}
		if err := o.NonuniformConsensus(pattern); err != nil {
			t.Errorf("nonuniform consensus must hold: %v", err)
		}
		if err := o.UniformConsensus(pattern); err == nil {
			t.Error("uniform consensus must fail")
		}
	})
	t.Run("nonuniform agreement violation", func(t *testing.T) {
		o := base
		o.Decisions = map[model.ProcessID]int{0: 1, 1: 0}
		if err := o.NonuniformAgreement(pattern); err == nil {
			t.Error("correct divergence accepted")
		}
	})
}

func TestAggregateSpecCheckers(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	correctOnly := model.SetOf(0, 1)
	good := []check.Sample{
		{P: 0, T: 20, Val: fd.QuorumValue{Quorum: correctOnly}},
		{P: 1, T: 21, Val: fd.QuorumValue{Quorum: correctOnly}},
	}
	if err := check.Sigma(good, pattern, 10); err != nil {
		t.Errorf("Sigma rejected: %v", err)
	}
	if err := check.SigmaNu(good, pattern, 10); err != nil {
		t.Errorf("SigmaNu rejected: %v", err)
	}
	if err := check.SigmaNuPlus(good, pattern, 10); err != nil {
		t.Errorf("SigmaNuPlus rejected: %v", err)
	}
	// Add a junk quorum at the faulty process: Σ breaks, Σν/Σν+ survive.
	junk := append(good, check.Sample{P: 2, T: 2, Val: fd.QuorumValue{Quorum: model.SetOf(2)}})
	if err := check.Sigma(junk, pattern, 10); err == nil {
		t.Error("Sigma must reject disjoint faulty quorums")
	}
	if err := check.SigmaNu(junk, pattern, 10); err != nil {
		t.Errorf("SigmaNu rejected faulty junk: %v", err)
	}
	if err := check.SigmaNuPlus(junk, pattern, 10); err != nil {
		t.Errorf("SigmaNuPlus rejected all-faulty junk: %v", err)
	}
	// A quorum missing its owner breaks only Σν+.
	noSelf := append(good, check.Sample{P: 0, T: 22, Val: fd.QuorumValue{Quorum: model.SetOf(1)}})
	if err := check.SigmaNu(noSelf, pattern, 10); err != nil {
		t.Errorf("SigmaNu rejected owner-free quorum: %v", err)
	}
	if err := check.SigmaNuPlus(noSelf, pattern, 10); err == nil {
		t.Error("SigmaNuPlus must require self-inclusion")
	}
	// Non-quorum samples are an error in every aggregate.
	bad := []check.Sample{{P: 0, T: 1, Val: fd.NullValue{}}}
	for name, f := range map[string]func([]check.Sample, *model.FailurePattern, model.Time) error{
		"Sigma": check.Sigma, "SigmaNu": check.SigmaNu, "SigmaNuPlus": check.SigmaNuPlus,
	} {
		if err := f(bad, pattern, 0); err == nil {
			t.Errorf("%s accepted non-quorum samples", name)
		}
	}
}

func TestOmegaOutputs(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	good := []check.Sample{
		{P: 0, T: 20, Val: fd.LeaderValue{Leader: 0}},
		{P: 1, T: 21, Val: fd.LeaderValue{Leader: 0}},
	}
	if err := check.OmegaOutputs(good, pattern, 10); err != nil {
		t.Errorf("rejected: %v", err)
	}
	if err := check.OmegaOutputs([]check.Sample{{P: 0, T: 1, Val: fd.NullValue{}}}, pattern, 0); err == nil {
		t.Error("non-leader samples must error")
	}
}

func TestStabilizationTime(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	samples := []check.Sample{
		{P: 0, T: 1, Val: fd.LeaderValue{Leader: 1}},
		{P: 0, T: 5, Val: fd.LeaderValue{Leader: 0}},  // change at 5
		{P: 0, T: 9, Val: fd.LeaderValue{Leader: 0}},  // no change
		{P: 2, T: 30, Val: fd.LeaderValue{Leader: 2}}, // faulty: ignored
		{P: 1, T: 7, Val: fd.LeaderValue{Leader: 0}},  // first sample: no change
	}
	if got := check.StabilizationTime(samples, pattern); got != 5 {
		t.Errorf("StabilizationTime = %d, want 5", got)
	}
	if got := check.StabilizationTime(nil, pattern); got != 0 {
		t.Errorf("empty record = %d, want 0", got)
	}
}

func TestEventuallyPerfect(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 5})
	faulty := model.SetOf(2)
	good := []check.Sample{
		{P: 0, T: 2, Val: fd.SuspectsValue{Suspects: model.SetOf(1)}}, // noise before horizon
		{P: 0, T: 20, Val: fd.SuspectsValue{Suspects: faulty}},
		{P: 1, T: 21, Val: fd.SuspectsValue{Suspects: faulty}},
	}
	if err := check.EventuallyPerfect(good, pattern, 10); err != nil {
		t.Errorf("rejected: %v", err)
	}
	t.Run("misses faulty", func(t *testing.T) {
		bad := append(good, check.Sample{P: 0, T: 30, Val: fd.SuspectsValue{Suspects: 0}})
		if err := check.EventuallyPerfect(bad, pattern, 10); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("suspects correct", func(t *testing.T) {
		bad := append(good, check.Sample{P: 0, T: 30, Val: fd.SuspectsValue{Suspects: model.SetOf(1, 2)}})
		if err := check.EventuallyPerfect(bad, pattern, 10); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("wrong value type", func(t *testing.T) {
		bad := []check.Sample{{P: 0, T: 20, Val: fd.NullValue{}}}
		if err := check.EventuallyPerfect(bad, pattern, 10); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("empty suffix", func(t *testing.T) {
		if err := check.EventuallyPerfect(good, pattern, 100); err == nil {
			t.Error("vacuous pass")
		}
	})
}

func TestOutcomeFromConfig(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	c := model.InitialConfiguration(testConsensusAut{})
	out := check.OutcomeFromConfig(c)
	if len(out.Proposals) != 3 || out.Proposals[1] != 10 {
		t.Errorf("proposals = %v", out.Proposals)
	}
	if v, ok := out.Decisions[2]; !ok || v != 10 {
		t.Errorf("decisions = %v", out.Decisions)
	}
	if err := out.Termination(pattern); err == nil {
		t.Error("p0/p1 undecided: termination must fail")
	}
}

// testConsensusAut is a stub automaton whose p2 starts decided.
type testConsensusAut struct{}

type stubState struct {
	p model.ProcessID
}

func (s stubState) CloneState() model.State { return s }
func (s stubState) Proposal() int           { return 10 }
func (s stubState) Decision() (int, bool)   { return 10, s.p == 2 }

func (testConsensusAut) Name() string { return "stub" }
func (testConsensusAut) N() int       { return 3 }
func (testConsensusAut) InitState(p model.ProcessID) model.State {
	return stubState{p: p}
}
func (testConsensusAut) Step(_ model.ProcessID, s model.State, _ *model.Message, _ model.FDValue) (model.State, []model.Send) {
	return s, nil
}

// TestHistoryFillForward: History rebuilds the dense H′(p, t) of §2.9 from
// output events — the value at t is the one p's latest event at or before
// t carries.
func TestHistoryFillForward(t *testing.T) {
	out := func(p model.ProcessID, at model.Time, leader model.ProcessID) obs.Event {
		return obs.Event{Kind: obs.KindFDOutput, P: p, T: at, FD: fd.LeaderValue{Leader: leader}}
	}
	smp := func(p model.ProcessID, at model.Time, leader model.ProcessID) check.Sample {
		return check.Sample{P: p, T: at, Val: fd.LeaderValue{Leader: leader}}
	}
	for _, tc := range []struct {
		name   string
		events []obs.Event
		end    model.Time
		want   []check.Sample
	}{
		{
			name:   "initial outputs hold from t=0 until a step changes them",
			events: []obs.Event{out(0, 0, 0), out(1, 0, 1), out(1, 2, 0)},
			end:    3,
			want: []check.Sample{
				smp(0, 0, 0), smp(1, 0, 1),
				smp(0, 1, 0), smp(1, 1, 1),
				smp(0, 2, 0), smp(1, 2, 0),
				smp(0, 3, 0), smp(1, 3, 0),
			},
		},
		{
			name:   "a process whose output is nil until its first step has no sample before it",
			events: []obs.Event{out(0, 0, 0), out(1, 2, 1)},
			end:    2,
			want:   []check.Sample{smp(0, 0, 0), smp(0, 1, 0), smp(0, 2, 0), smp(1, 2, 1)},
		},
		{
			name:   "a crashed process holds its last value to the final tick",
			events: []obs.Event{out(0, 0, 0), out(1, 0, 0), out(1, 1, 1), out(0, 2, 1), out(0, 4, 0)},
			end:    4,
			want: []check.Sample{
				smp(0, 0, 0), smp(1, 0, 0),
				smp(0, 1, 0), smp(1, 1, 1),
				smp(0, 2, 1), smp(1, 2, 1),
				smp(0, 3, 1), smp(1, 3, 1),
				smp(0, 4, 0), smp(1, 4, 1),
			},
		},
		{
			// p0 took tick 2 and p1 tick 3, but p1 reached the bus first.
			name:   "events of different processes may arrive out of tick order",
			events: []obs.Event{out(0, 0, 0), out(1, 0, 0), out(1, 3, 1), out(0, 2, 1)},
			end:    3,
			want: []check.Sample{
				smp(0, 0, 0), smp(1, 0, 0),
				smp(0, 1, 0), smp(1, 1, 0),
				smp(0, 2, 1), smp(1, 2, 0),
				smp(0, 3, 1), smp(1, 3, 1),
			},
		},
		{
			name: "other kinds are ignored",
			events: []obs.Event{
				{Kind: obs.KindFDQuery, P: 0, T: 1, FD: fd.LeaderValue{Leader: 1}},
				out(0, 1, 0),
				{Kind: obs.KindStep, P: 0, T: 1},
			},
			end:  1,
			want: []check.Sample{smp(0, 1, 0)},
		},
		{name: "no output events, no history", end: 5, want: []check.Sample{}},
	} {
		if got := check.History(tc.events, tc.end); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}
