package transform

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// PassthroughQuorum is the identity "transformation": each process outputs
// the quorum component its failure detector last produced. Applied to Σν
// it is a correct Σν→Σν emulation and the second doomed candidate in the
// Theorem 7.1 partition experiment: passing Σν through unchanged does not
// yield Σ when t ≥ n/2, because quorums at (eventually) faulty processes
// need not intersect anything.
type PassthroughQuorum struct {
	n int
}

// NewPassthroughQuorum returns the identity quorum transformer.
func NewPassthroughQuorum(n int) *PassthroughQuorum {
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("transform: invalid system size %d", n))
	}
	return &PassthroughQuorum{n: n}
}

// Name implements model.Automaton.
func (a *PassthroughQuorum) Name() string { return "Σν-passthrough" }

// N implements model.Automaton.
func (a *PassthroughQuorum) N() int { return a.n }

// passthroughState holds the last sampled quorum.
type passthroughState struct {
	output model.ProcessSet
}

// CloneState implements model.State.
func (s *passthroughState) CloneState() model.State {
	c := *s
	return &c
}

// EmulatedOutput implements model.FDOutput.
func (s *passthroughState) EmulatedOutput() model.FDValue {
	return fd.QuorumValue{Quorum: s.output}
}

// InitState implements model.Automaton.
func (a *PassthroughQuorum) InitState(model.ProcessID) model.State {
	return &passthroughState{output: model.FullSet(a.n)}
}

// Step implements model.Automaton.
func (a *PassthroughQuorum) Step(_ model.ProcessID, s model.State, _ *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*passthroughState)
	if q, ok := fd.QuorumOf(d); ok {
		st.output = q
	}
	return st, nil
}
