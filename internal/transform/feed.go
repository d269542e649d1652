package transform

import (
	"fmt"

	"nuconsensus/internal/model"
)

// Feed is the generic emitter→consumer composition: each atomic step first
// advances a failure-detector-emitting automaton (with the step's message
// if the emitter owns its payload type), then the consumer with the
// emitter's current output variable as its failure-detector value. It
// generalizes the pair-specific compositions (Composed, OracleFree) to any
// emitter/consumer combination — e.g. the heartbeat ◇P feeding the
// Chandra–Toueg algorithm for an oracle-free *uniform* consensus stack.
type Feed struct {
	emitter     model.Automaton // states must implement model.FDOutput
	consumer    model.Automaton
	emitterOwns func(model.Payload) bool
}

// NewFeed composes emitter and consumer; emitterOwns routes received
// messages (true → emitter, false → consumer).
func NewFeed(emitter, consumer model.Automaton, emitterOwns func(model.Payload) bool) *Feed {
	if emitter.N() != consumer.N() {
		panic(fmt.Sprintf("transform: component sizes differ (%d vs %d)", emitter.N(), consumer.N()))
	}
	return &Feed{emitter: emitter, consumer: consumer, emitterOwns: emitterOwns}
}

// Name implements model.Automaton.
func (a *Feed) Name() string {
	return fmt.Sprintf("%s▸%s", a.emitter.Name(), a.consumer.Name())
}

// N implements model.Automaton.
func (a *Feed) N() int { return a.consumer.N() }

// feedState pairs the two component states.
type feedState struct {
	es model.State
	cs model.State
}

// CloneState implements model.State.
func (s *feedState) CloneState() model.State {
	return &feedState{es: s.es.CloneState(), cs: s.cs.CloneState()}
}

// Decision implements model.Decider by delegating to the consumer.
func (s *feedState) Decision() (int, bool) { return model.DecisionOf(s.cs) }

// Proposal implements model.Proposer by delegating to the consumer.
func (s *feedState) Proposal() int {
	if pr, ok := s.cs.(model.Proposer); ok {
		return pr.Proposal()
	}
	return 0
}

// Round implements model.Rounder by delegating to the consumer.
func (s *feedState) Round() int {
	r, _ := model.RoundOf(s.cs)
	return r
}

// EmulatedOutput implements model.FDOutput: the value the consumer sees.
func (s *feedState) EmulatedOutput() model.FDValue {
	if out, ok := s.es.(model.FDOutput); ok {
		return out.EmulatedOutput()
	}
	return nil
}

// InitState implements model.Automaton.
func (a *Feed) InitState(p model.ProcessID) model.State {
	return &feedState{es: a.emitter.InitState(p), cs: a.consumer.InitState(p)}
}

// Step implements model.Automaton.
func (a *Feed) Step(p model.ProcessID, s model.State, m *model.Message, _ model.FDValue) (model.State, []model.Send) {
	st := s.(*feedState)
	var me, mc *model.Message
	if m != nil {
		if a.emitterOwns(m.Payload) {
			me = m
		} else {
			mc = m
		}
	}
	es, eSends := a.emitter.Step(p, st.es, me, nil)
	st.es = es
	d := st.EmulatedOutput()
	if d == nil {
		panic("transform: feed emitter state does not expose an output")
	}
	cs, cSends := a.consumer.Step(p, st.cs, mc, d)
	st.cs = cs
	return st, append(eSends, cSends...)
}
