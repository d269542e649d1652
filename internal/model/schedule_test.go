package model

import (
	"strings"
	"testing"
)

// chainAut is a deterministic test algorithm: process 0's first step sends
// a TOKEN to process 1; any process receiving TOKEN(h) forwards TOKEN(h+1)
// to the next process (mod n). It produces controlled causal chains.
type chainAut struct{ n int }

type chainState struct {
	started bool
	hops    []int
}

func (s *chainState) CloneState() State {
	c := &chainState{started: s.started, hops: append([]int(nil), s.hops...)}
	return c
}

type tokenPayload struct{ Hop int }

func (tokenPayload) Kind() string     { return "TOKEN" }
func (p tokenPayload) String() string { return "TOKEN" }
func (a chainAut) Name() string       { return "chain" }
func (a chainAut) N() int             { return a.n }
func (a chainAut) InitState(ProcessID) State {
	return &chainState{}
}

func (a chainAut) Step(p ProcessID, s State, m *Message, _ FDValue) (State, []Send) {
	st := s.(*chainState)
	var out []Send
	if p == 0 && !st.started {
		st.started = true
		out = append(out, Send{To: 1, Payload: tokenPayload{Hop: 0}})
	}
	if m != nil {
		tok := m.Payload.(tokenPayload)
		st.hops = append(st.hops, tok.Hop)
		out = append(out, Send{To: (p + 1) % ProcessID(a.n), Payload: tokenPayload{Hop: tok.Hop + 1}})
	}
	return st, out
}

// nullFD is a trivial FD value for tests.
type nullFD struct{}

func (nullFD) String() string { return "⊥" }

type constHistory struct{}

func (constHistory) Output(ProcessID, Time) FDValue { return nullFD{} }

// buildChainRun produces the run: p0 sends token, p1 receives and forwards,
// p2 receives. Returns the automaton and the run.
func buildChainRun(t *testing.T) (*Run, []*Message) {
	t.Helper()
	a := chainAut{n: 3}
	c := InitialConfiguration(a)

	var msgs []*Message
	var schedule Schedule
	var times []Time

	step := func(p ProcessID, m *Message, at Time) {
		e := Step{P: p, M: m, D: nullFD{}}
		if !e.Applicable(c) {
			t.Fatalf("step %v not applicable", e)
		}
		sent := c.Apply(a, e)
		msgs = append(msgs, sent...)
		schedule = append(schedule, e)
		times = append(times, at)
	}

	step(0, nil, 1) // sends TOKEN(0) to p1
	if len(msgs) != 1 {
		t.Fatalf("expected 1 message after p0's step, got %d", len(msgs))
	}
	step(1, msgs[0], 2) // receives, forwards TOKEN(1) to p2
	if len(msgs) != 2 {
		t.Fatalf("expected 2 messages, got %d", len(msgs))
	}
	step(2, msgs[1], 3)

	return &Run{
		Automaton: a,
		Pattern:   NewFailurePattern(3),
		History:   constHistory{},
		Schedule:  schedule,
		Times:     times,
	}, msgs
}

func TestScheduleApplicabilityAndApply(t *testing.T) {
	run, _ := buildChainRun(t)
	init := InitialConfiguration(run.Automaton)
	if !run.Schedule.ApplicableTo(run.Automaton, init) {
		t.Fatal("schedule must be applicable to the initial configuration")
	}
	final := run.Schedule.Apply(run.Automaton, init)
	// Apply must not mutate its input configuration.
	if len(init.States[2].(*chainState).hops) != 0 {
		t.Error("Apply mutated the input configuration")
	}
	if got := final.States[2].(*chainState).hops; len(got) != 1 || got[0] != 1 {
		t.Errorf("p2 hops = %v, want [1]", got)
	}
	if got := run.Schedule.Participants(); got != SetOf(0, 1, 2) {
		t.Errorf("Participants() = %v", got)
	}
}

func TestScheduleNotApplicable(t *testing.T) {
	a := chainAut{n: 3}
	init := InitialConfiguration(a)
	ghost := &Message{From: 0, To: 1, Seq: 99, Payload: tokenPayload{}}
	s := Schedule{{P: 1, M: ghost, D: nullFD{}}}
	if s.ApplicableTo(a, init) {
		t.Error("schedule receiving an unsent message must not be applicable")
	}
}

func TestCausalPrecedence(t *testing.T) {
	run, _ := buildChainRun(t)
	a := run.Automaton

	cases := []struct {
		i, j int
		want bool
	}{
		{0, 1, true},  // send → receive
		{1, 2, true},  // forward → receive
		{0, 2, true},  // transitive
		{1, 0, false}, // no backwards causality
		{2, 0, false},
	}
	for _, tc := range cases {
		got, err := CausallyPrecedes(a, run.Schedule, tc.i, tc.j)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("CausallyPrecedes(%d,%d) = %v, want %v", tc.i, tc.j, got, tc.want)
		}
	}
	if _, err := CausallyPrecedes(a, run.Schedule, 0, 9); err == nil {
		t.Error("out-of-range index must error")
	}
}

func TestRunValidate(t *testing.T) {
	run, _ := buildChainRun(t)
	if err := run.Validate(); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}

	t.Run("property 2: length mismatch", func(t *testing.T) {
		bad := *run
		bad.Times = bad.Times[:2]
		requireValidateError(t, &bad, "property (2)")
	})
	t.Run("property 4: decreasing times", func(t *testing.T) {
		bad := *run
		bad.Times = []Time{3, 2, 1}
		requireValidateError(t, &bad, "property (4)")
	})
	t.Run("property 3: step after crash", func(t *testing.T) {
		bad := *run
		bad.Pattern = PatternFromCrashes(3, map[ProcessID]Time{1: 1})
		requireValidateError(t, &bad, "property (3)")
	})
	t.Run("property 5: causality vs equal times", func(t *testing.T) {
		bad := *run
		bad.Times = []Time{1, 1, 2} // step 0 causally precedes step 1 but T equal
		requireValidateError(t, &bad, "property (5)")
	})
	t.Run("property 1: inapplicable schedule", func(t *testing.T) {
		bad := *run
		ghost := &Message{From: 2, To: 1, Seq: 42, Payload: tokenPayload{}}
		bad.Schedule = Schedule{{P: 1, M: ghost, D: nullFD{}}}
		bad.Times = []Time{1}
		requireValidateError(t, &bad, "property (1)")
	})
}

func requireValidateError(t *testing.T, r *Run, want string) {
	t.Helper()
	err := r.Validate()
	if err == nil {
		t.Fatalf("expected %s violation", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("got %q, want mention of %s", err, want)
	}
}

func TestApplyPanicsOnMissingMessage(t *testing.T) {
	a := chainAut{n: 3}
	c := InitialConfiguration(a)
	ghost := &Message{From: 0, To: 1, Seq: 7, Payload: tokenPayload{}}
	defer func() {
		if recover() == nil {
			t.Error("Apply must panic on a message not in the buffer")
		}
	}()
	c.Apply(a, Step{P: 1, M: ghost, D: nullFD{}})
}

func TestStepString(t *testing.T) {
	e := Step{P: 1, M: nil, D: nullFD{}}
	if got := e.String(); !strings.Contains(got, "λ") {
		t.Errorf("λ step renders as %q", got)
	}
}

func TestStateHelpers(t *testing.T) {
	// chainState implements neither Decider, Proposer nor Rounder.
	s := &chainState{}
	if _, ok := DecisionOf(s); ok {
		t.Error("DecisionOf on a non-decider must report false")
	}
	if _, ok := RoundOf(s); ok {
		t.Error("RoundOf on a non-rounder must report false")
	}
}

func TestConfigurationClone(t *testing.T) {
	a := chainAut{n: 3}
	c := InitialConfiguration(a)
	c.Apply(a, Step{P: 0, M: nil, D: nullFD{}}) // p0 sends the token
	cl := c.Clone()
	// Advancing the clone must not affect the original.
	m := cl.Buffer.Oldest(1)
	if m == nil {
		t.Fatal("clone lost the in-flight token")
	}
	cl.Apply(a, Step{P: 1, M: m, D: nullFD{}})
	if c.Buffer.Len() != 1 {
		t.Error("original buffer changed when the clone stepped")
	}
	if len(c.States[1].(*chainState).hops) != 0 {
		t.Error("original state changed when the clone stepped")
	}
}
