package dag_test

import (
	"testing"

	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
)

func TestADagBuildsSharedDAG(t *testing.T) {
	n := 3
	pattern := model.NewFailurePattern(n)
	res, err := sim.Run(sim.Exec{
		Automaton: dag.NewADag(n),
		Pattern:   pattern,
		History:   fd.NewOmega(pattern, 0, 1),
		Scheduler: sim.NewFairScheduler(1, 0.8, 3),
		MaxSteps:  120,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		g := res.Config.States[p].(dag.GraphHolder).SampleGraph()
		if g.Len() == 0 {
			t.Fatalf("p%d has an empty DAG", p)
		}
		// Everyone's DAG contains samples of everyone (Lemma 4.7's shadow).
		if got := g.SamplesOf(g.Descendants(0)); got != model.FullSet(n) {
			t.Errorf("p%d DAG participants = %v", p, got)
		}
	}
}

func TestADagStepAddsSample(t *testing.T) {
	a := dag.NewADag(2)
	s1, _ := a.Step(0, a.InitState(0), nil, fd.LeaderValue{Leader: 0})
	if s1.(dag.GraphHolder).SampleGraph().Len() != 1 {
		t.Error("Step did not add a sample")
	}
}

func TestGraphPayloadSupersedes(t *testing.T) {
	var pl model.Payload = dag.GraphPayload{G: dag.NewGraph()}
	if _, ok := pl.(model.SupersededPayload); !ok {
		t.Error("GraphPayload must be superseded by newer snapshots")
	}
	if pl.Kind() != "DAG" || pl.String() == "" {
		t.Error("payload metadata wrong")
	}
}

// decideAfter is a trivial consensus-ish automaton: process p decides its
// proposal after taking `after` steps. It drives Simulate/DecidesAlong.
type decideAfter struct {
	n     int
	after int
}

type decideAfterState struct {
	steps   int
	after   int
	decided bool
}

func (s *decideAfterState) CloneState() model.State { c := *s; return &c }
func (s *decideAfterState) Decision() (int, bool)   { return 7, s.decided }

func (a decideAfter) Name() string { return "decideAfter" }
func (a decideAfter) N() int       { return a.n }
func (a decideAfter) InitState(model.ProcessID) model.State {
	return &decideAfterState{after: a.after}
}

func (a decideAfter) Step(_ model.ProcessID, s model.State, _ *model.Message, _ model.FDValue) (model.State, []model.Send) {
	st := s.(*decideAfterState)
	st.steps++
	if st.steps >= st.after {
		st.decided = true
	}
	return st, nil
}

func TestDecidesAlong(t *testing.T) {
	path := []dag.Node{
		{P: 0, K: 1, D: fd.NullValue{}},
		{P: 1, K: 1, D: fd.NullValue{}},
		{P: 0, K: 2, D: fd.NullValue{}},
		{P: 0, K: 3, D: fd.NullValue{}},
	}
	aut := decideAfter{n: 2, after: 2}

	parts, v, ok := dag.DecidesAlong(aut, path, 0)
	if !ok || v != 7 {
		t.Fatalf("DecidesAlong = %v, %d", ok, v)
	}
	// p0 decides at its 2nd step, which is path index 2 → the shortest
	// deciding prefix has participants {p0, p1}.
	if parts != model.SetOf(0, 1) {
		t.Errorf("participants = %v", parts)
	}

	// p1 takes only one step on this path, so it never decides.
	if _, _, ok := dag.DecidesAlong(aut, path, 1); ok {
		t.Error("p1 must not decide along this path")
	}

	if got := dag.Participants(path); got != model.SetOf(0, 1) {
		t.Errorf("Participants = %v", got)
	}
}

func TestSimulateObserverStops(t *testing.T) {
	path := make([]dag.Node, 10)
	for i := range path {
		path[i] = dag.Node{P: 0, K: i + 1, D: fd.NullValue{}}
	}
	calls := 0
	dag.Simulate(decideAfter{n: 1, after: 100}, path, func(steps int, _ *model.Configuration) bool {
		calls = steps
		return steps == 4
	})
	if calls != 4 {
		t.Errorf("observer saw %d steps, want stop at 4", calls)
	}
}
