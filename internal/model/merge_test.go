package model

import (
	"reflect"
	"testing"
)

// loopAut is a test algorithm in which every process, on each step, sends a
// numbered note to its partner within its half: {0,1} exchange, {2,3}
// exchange. Halves never communicate, so runs confined to one half are
// mergeable with runs confined to the other.
type loopAut struct{ n int }

type loopState struct {
	Sent     int
	Received []int
}

func (s *loopState) CloneState() State {
	return &loopState{Sent: s.Sent, Received: append([]int(nil), s.Received...)}
}

type notePayload struct{ N int }

func (notePayload) Kind() string            { return "NOTE" }
func (p notePayload) String() string        { return "NOTE" }
func (a loopAut) Name() string              { return "loop" }
func (a loopAut) N() int                    { return a.n }
func (a loopAut) InitState(ProcessID) State { return &loopState{} }

func (a loopAut) Step(p ProcessID, s State, m *Message, _ FDValue) (State, []Send) {
	st := s.(*loopState)
	if m != nil {
		st.Received = append(st.Received, m.Payload.(notePayload).N)
	}
	partner := p ^ 1 // 0↔1, 2↔3
	st.Sent++
	return st, []Send{{To: partner, Payload: notePayload{N: st.Sent}}}
}

// runHalf executes k steps confined to the given processes, delivering the
// oldest pending message on every second step.
func runHalf(t *testing.T, a Automaton, ps []ProcessID, k int, baseTime Time) *Run {
	t.Helper()
	c := InitialConfiguration(a)
	var schedule Schedule
	var times []Time
	for i := 0; i < k; i++ {
		p := ps[i%len(ps)]
		var m *Message
		if i%2 == 1 {
			m = c.Buffer.Oldest(p)
		}
		e := Step{P: p, M: m, D: nullFD{}}
		if !e.Applicable(c) {
			t.Fatalf("step %v not applicable", e)
		}
		c.Apply(a, e)
		schedule = append(schedule, e)
		times = append(times, baseTime+Time(i))
	}
	return &Run{
		Automaton: a,
		Pattern:   NewFailurePattern(a.N()),
		History:   constHistory{},
		Schedule:  schedule,
		Times:     times,
	}
}

func TestMergeRunsLemma22(t *testing.T) {
	a := loopAut{n: 4}
	r0 := runHalf(t, a, []ProcessID{0, 1}, 12, 1)
	r1 := runHalf(t, a, []ProcessID{2, 3}, 9, 1)

	merged, err := MergeRuns(r0, r1, a)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 2.2(a): the merging is a run.
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged run invalid: %v", err)
	}
	if len(merged.Schedule) != len(r0.Schedule)+len(r1.Schedule) {
		t.Fatalf("merged length %d", len(merged.Schedule))
	}
	for i := 1; i < len(merged.Times); i++ {
		if merged.Times[i] < merged.Times[i-1] {
			t.Fatal("merged times must be nondecreasing")
		}
	}

	// Lemma 2.2(b): each participant's state is the same in S(I) as in its
	// own run.
	final, err := merged.FinalStates()
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := r0.FinalStates()
	f1, _ := r1.FinalStates()
	for _, p := range []ProcessID{0, 1} {
		if !reflect.DeepEqual(final.States[p], f0.States[p]) {
			t.Errorf("state of %v differs after merging", p)
		}
	}
	for _, p := range []ProcessID{2, 3} {
		if !reflect.DeepEqual(final.States[p], f1.States[p]) {
			t.Errorf("state of %v differs after merging", p)
		}
	}
}

func TestMergeRejectsOverlappingParticipants(t *testing.T) {
	a := loopAut{n: 4}
	r0 := runHalf(t, a, []ProcessID{0, 1}, 6, 1)
	r1 := runHalf(t, a, []ProcessID{1, 2}, 6, 1)
	if _, err := MergeRuns(r0, r1, a); err == nil {
		t.Fatal("overlapping participants must be rejected")
	}
}

// mismatchedAut wraps loopAut with a different initial state, to violate
// the initial-configuration compatibility condition.
type mismatchedAut struct{ loopAut }

func (a mismatchedAut) InitState(ProcessID) State { return &loopState{Sent: 42} }

func TestMergeRejectsMismatchedInitialStates(t *testing.T) {
	a := loopAut{n: 4}
	r0 := runHalf(t, a, []ProcessID{0, 1}, 6, 1)
	r1 := runHalf(t, a, []ProcessID{2, 3}, 6, 1)
	if _, err := MergeRuns(r0, r1, mismatchedAut{a}); err == nil {
		t.Fatal("mismatched initial states must be rejected")
	}
}

func TestMergeTieBreaking(t *testing.T) {
	// Ties in T must interleave stably (r0 first), per the deterministic
	// merging this implementation produces.
	a := loopAut{n: 4}
	r0 := runHalf(t, a, []ProcessID{0}, 2, 5)
	r1 := runHalf(t, a, []ProcessID{2}, 2, 5)
	m, err := MergeRuns(r0, r1, a)
	if err != nil {
		t.Fatal(err)
	}
	wantP := []ProcessID{0, 2, 0, 2}
	wantT := []Time{5, 5, 6, 6}
	for i := range m.Schedule {
		if m.Schedule[i].P != wantP[i] || m.Times[i] != wantT[i] {
			t.Fatalf("merged[%d] = (%v, %d), want (%v, %d)",
				i, m.Schedule[i].P, m.Times[i], wantP[i], wantT[i])
		}
	}
}
