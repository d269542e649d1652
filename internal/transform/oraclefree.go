package transform

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
)

// OracleFree composes two from-scratch detector implementations with a
// consumer algorithm: the heartbeat Ω of internal/hb, the threshold Σν+ of
// Theorem 7.1's IF direction, and (typically) A_nuc. The result is a fully
// failure-detector-free nonuniform consensus algorithm for environments
// with a correct majority and eventual timeliness — the paper's theory
// folded back into a deployable protocol stack.
//
// Each atomic step advances all three components: the two emitters with
// this step's message if it is theirs (heartbeats → Ω, round messages →
// Σν+), and the consumer with the pair assembled from the emitters' output
// variables. Drive it with any history (fd.Null): it ignores the ambient
// failure detector entirely.
type OracleFree struct {
	omega    model.Automaton
	sigma    model.Automaton
	consumer model.Automaton
}

// NewOracleFree composes an Ω emitter, a quorum emitter and a consumer.
// Both emitters' states must implement model.FDOutput.
func NewOracleFree(omega, sigma, consumer model.Automaton) *OracleFree {
	if omega.N() != consumer.N() || sigma.N() != consumer.N() {
		panic(fmt.Sprintf("transform: component sizes differ (%d, %d, %d)",
			omega.N(), sigma.N(), consumer.N()))
	}
	return &OracleFree{omega: omega, sigma: sigma, consumer: consumer}
}

// Name implements model.Automaton.
func (a *OracleFree) Name() string {
	return fmt.Sprintf("%s+%s∘%s", a.omega.Name(), a.sigma.Name(), a.consumer.Name())
}

// N implements model.Automaton.
func (a *OracleFree) N() int { return a.consumer.N() }

// oracleFreeState bundles the three component states.
type oracleFreeState struct {
	os model.State
	ss model.State
	cs model.State
}

// CloneState implements model.State.
func (s *oracleFreeState) CloneState() model.State {
	return &oracleFreeState{
		os: s.os.CloneState(),
		ss: s.ss.CloneState(),
		cs: s.cs.CloneState(),
	}
}

// Decision implements model.Decider by delegating to the consumer.
func (s *oracleFreeState) Decision() (int, bool) { return model.DecisionOf(s.cs) }

// Proposal implements model.Proposer by delegating to the consumer.
func (s *oracleFreeState) Proposal() int {
	if pr, ok := s.cs.(model.Proposer); ok {
		return pr.Proposal()
	}
	return 0
}

// Round implements model.Rounder by delegating to the consumer.
func (s *oracleFreeState) Round() int {
	r, _ := model.RoundOf(s.cs)
	return r
}

// EmulatedOutput implements model.FDOutput: the assembled (Ω, Σν+) pair the
// consumer sees, so recorded outputs can be validated against both specs.
func (s *oracleFreeState) EmulatedOutput() model.FDValue {
	return fd.PairValue{
		First:  s.os.(model.FDOutput).EmulatedOutput(),
		Second: s.ss.(model.FDOutput).EmulatedOutput(),
	}
}

// InitState implements model.Automaton.
func (a *OracleFree) InitState(p model.ProcessID) model.State {
	return &oracleFreeState{
		os: a.omega.InitState(p),
		ss: a.sigma.InitState(p),
		cs: a.consumer.InitState(p),
	}
}

// Step implements model.Automaton.
func (a *OracleFree) Step(p model.ProcessID, s model.State, m *model.Message, _ model.FDValue) (model.State, []model.Send) {
	st := s.(*oracleFreeState)

	var mo, ms, mc *model.Message
	if m != nil {
		switch m.Payload.(type) {
		case hb.HeartbeatPayload:
			mo = m
		case RoundPayload:
			ms = m
		default:
			mc = m
		}
	}

	os, oSends := a.omega.Step(p, st.os, mo, fd.NullValue{})
	st.os = os
	ss, sSends := a.sigma.Step(p, st.ss, ms, fd.NullValue{})
	st.ss = ss

	cs, cSends := a.consumer.Step(p, st.cs, mc, st.EmulatedOutput())
	st.cs = cs

	out := append(oSends, sSends...)
	return st, append(out, cSends...)
}
