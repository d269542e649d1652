package transform

import (
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

func node(p model.ProcessID, k int, quorum ...model.ProcessID) dag.Node {
	return dag.Node{P: p, K: k, D: fd.QuorumValue{Quorum: model.SetOf(quorum...)}}
}

func TestSatisfyingSuffix(t *testing.T) {
	tests := []struct {
		name string
		path []dag.Node
		p    model.ProcessID
		want model.ProcessSet
		ok   bool
	}{
		{
			name: "whole path satisfies",
			path: []dag.Node{node(0, 1, 0, 1), node(1, 1, 0, 1)},
			p:    0,
			want: model.SetOf(0, 1),
			ok:   true,
		},
		{
			name: "only a fresh suffix satisfies",
			// The first node trusts p2, which never participates; the
			// suffix from index 1 trusts only {0,1} ⊆ participants.
			path: []dag.Node{node(0, 1, 0, 2), node(0, 2, 0, 1), node(1, 1, 0, 1)},
			p:    0,
			want: model.SetOf(0, 1),
			ok:   true,
		},
		{
			name: "p missing from any satisfying suffix",
			path: []dag.Node{node(1, 1, 1), node(1, 2, 1)},
			p:    0,
			ok:   false,
		},
		{
			name: "trusted never covered",
			path: []dag.Node{node(0, 1, 0, 3), node(1, 1, 1, 3)},
			p:    0,
			ok:   false,
		},
		{
			name: "longest satisfying suffix preferred",
			path: []dag.Node{node(0, 1, 0), node(1, 1, 0, 1)},
			p:    0,
			want: model.SetOf(0, 1), // whole path: trusted {0,1} ⊆ {0,1}
			ok:   true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := satisfyingSuffix(tc.path, tc.p)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && got != tc.want {
				t.Fatalf("participants = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSatisfyingSuffixPanicsOnNonQuorum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-quorum sample")
		}
	}()
	satisfyingSuffix([]dag.Node{{P: 0, K: 1, D: fd.NullValue{}}}, 0)
}

func TestScratchSigmaConstructors(t *testing.T) {
	if NewScratchSigma(5, 2) == nil {
		t.Fatal("valid construction failed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewScratchSigma must reject t ≥ n/2")
			}
		}()
		NewScratchSigma(4, 2)
	}()
	if NewThresholdQuorum(4, 2) == nil {
		t.Fatal("threshold candidate must allow t ≥ n/2")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewThresholdQuorum must reject t ≥ n")
			}
		}()
		NewThresholdQuorum(4, 4)
	}()
}

func TestScratchSigmaRoundsAndOutputs(t *testing.T) {
	a := NewScratchSigma(3, 1)
	c := model.InitialConfiguration(a)
	// Drive round-robin with oldest-first delivery; outputs must be sets of
	// exactly n−t = 2 senders.
	sawNonInitial := false
	for i := 0; i < 60; i++ {
		p := model.ProcessID(i % 3)
		e := model.Step{P: p, M: c.Buffer.Oldest(p), D: fd.NullValue{}}
		c.Apply(a, e)
		out, _ := fd.QuorumOf(c.States[p].(model.FDOutput).EmulatedOutput())
		if out != model.FullSet(3) {
			sawNonInitial = true
			if out.Len() != 2 {
				t.Fatalf("output %v has size %d, want n−t=2", out, out.Len())
			}
		}
	}
	if !sawNonInitial {
		t.Error("outputs never advanced past the initial Π")
	}
}

func TestPassthroughQuorum(t *testing.T) {
	a := NewPassthroughQuorum(3)
	s := a.InitState(1)
	if q, _ := fd.QuorumOf(s.(model.FDOutput).EmulatedOutput()); q != model.FullSet(3) {
		t.Fatalf("initial output %v, want Π", q)
	}
	s2, sends := a.Step(1, s, nil, fd.QuorumValue{Quorum: model.SetOf(1, 2)})
	if len(sends) != 0 {
		t.Error("passthrough must not send messages")
	}
	if q, _ := fd.QuorumOf(s2.(model.FDOutput).EmulatedOutput()); q != model.SetOf(1, 2) {
		t.Errorf("output %v after sampling {p1,p2}", q)
	}
}

func TestComposedDelegation(t *testing.T) {
	trans := NewSigmaNuPlusTransformer(2)
	consumer := &fakeConsumer{n: 2}
	a := NewComposed(trans, consumer)
	if a.N() != 2 {
		t.Fatal("N mismatch")
	}
	st := a.InitState(0)
	d := fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: model.SetOf(0, 1)}}
	st2, _ := a.Step(0, st, nil, d)
	if v, ok := model.DecisionOf(st2); !ok || v != 42 {
		t.Errorf("composed decision = %d, %v; want delegation to consumer", v, ok)
	}
	if r, ok := model.RoundOf(st2); !ok || r != 9 {
		t.Errorf("composed round = %d, %v", r, ok)
	}
	if pr, ok := st2.(model.Proposer); !ok || pr.Proposal() != 5 {
		t.Error("composed proposal delegation broken")
	}
	if out := st2.(model.FDOutput).EmulatedOutput(); out == nil {
		t.Error("composed must expose the transformer's output")
	}
}

// fakeConsumer is a minimal consumer automaton that decides 42 on its
// first step and reports round 9.
type fakeConsumer struct{ n int }

type fakeConsumerState struct{ decided bool }

func (s *fakeConsumerState) CloneState() model.State { c := *s; return &c }
func (s *fakeConsumerState) Decision() (int, bool)   { return 42, s.decided }
func (s *fakeConsumerState) Proposal() int           { return 5 }
func (s *fakeConsumerState) Round() int              { return 9 }

func (a *fakeConsumer) Name() string                          { return "fake" }
func (a *fakeConsumer) N() int                                { return a.n }
func (a *fakeConsumer) InitState(model.ProcessID) model.State { return &fakeConsumerState{} }
func (a *fakeConsumer) Step(_ model.ProcessID, s model.State, _ *model.Message, d model.FDValue) (model.State, []model.Send) {
	if _, ok := fd.QuorumOf(d); !ok {
		panic("fake consumer expects a quorum component")
	}
	st := s.(*fakeConsumerState)
	st.decided = true
	return st, nil
}

// dPHistory is a canonical ◇P history: arbitrary suspicion before
// stabilize, exactly the faulty set afterwards.
type dPHistory struct {
	pattern   *model.FailurePattern
	stabilize model.Time
}

func (h dPHistory) Output(p model.ProcessID, t model.Time) model.FDValue {
	if t >= h.stabilize {
		return fd.SuspectsValue{Suspects: h.pattern.Faulty()}
	}
	// Pre-stabilization noise: suspect everyone but yourself on odd ticks.
	if t%2 == 1 {
		return fd.SuspectsValue{Suspects: h.pattern.All().Remove(p)}
	}
	return fd.SuspectsValue{Suspects: 0}
}

func TestOmegaFromSuspects(t *testing.T) {
	n := 4
	pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{0: 20, 2: 35})
	aut := NewOmegaFromSuspects(n)
	hist := dPHistory{pattern: pattern, stabilize: 60}

	// Drive each correct process directly through time and check the
	// emitted leader history against the Ω specification.
	var outs []check.Sample
	states := map[model.ProcessID]model.State{}
	for p := 0; p < n; p++ {
		states[model.ProcessID(p)] = aut.InitState(model.ProcessID(p))
	}
	for tt := model.Time(1); tt <= 120; tt++ {
		for p := 0; p < n; p++ {
			pid := model.ProcessID(p)
			if pattern.Crashed(pid, tt) {
				continue
			}
			st, sends := aut.Step(pid, states[pid], nil, hist.Output(pid, tt))
			if len(sends) != 0 {
				t.Fatal("the ◇P→Ω reduction must be purely local")
			}
			states[pid] = st
			outs = append(outs, check.Sample{P: pid, T: tt, Val: st.(model.FDOutput).EmulatedOutput()})
		}
	}
	if err := check.OmegaOutputs(outs, pattern, 60); err != nil {
		t.Fatalf("emitted history violates Ω: %v", err)
	}
}

func TestOmegaFromSuspectsPanicsOnWrongInput(t *testing.T) {
	aut := NewOmegaFromSuspects(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic without a suspects component")
		}
	}()
	aut.Step(0, aut.InitState(0), nil, fd.NullValue{})
}
