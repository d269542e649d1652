package transform

import (
	"fmt"

	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// Composed is the construction of Theorem 6.28: given (Ω, Σν), run
// T_{Σν→Σν+} concurrently with a consumer algorithm (A_nuc) that uses
// (Ω, Σν+), where the Σν+ module is read from the transformer's output
// variable. Each atomic step of the composed automaton advances the
// transformer with the step's Σν component and then the consumer with
// (Ω, emulated Σν+); the step's single received message is routed to the
// component that understands its payload (DAG snapshots → transformer,
// everything else → consumer), the other component receiving λ.
//
// Drive it with PairValue histories (Ω, Σν).
type Composed struct {
	trans    model.Automaton // states must implement model.FDOutput
	consumer model.Automaton
}

// NewComposed combines a transformer and a consumer over the same system
// size.
func NewComposed(trans, consumer model.Automaton) *Composed {
	if trans.N() != consumer.N() {
		panic(fmt.Sprintf("transform: component sizes differ (%d vs %d)", trans.N(), consumer.N()))
	}
	return &Composed{trans: trans, consumer: consumer}
}

// Name implements model.Automaton.
func (a *Composed) Name() string {
	return fmt.Sprintf("%s∘%s", a.trans.Name(), a.consumer.Name())
}

// N implements model.Automaton.
func (a *Composed) N() int { return a.trans.N() }

// composedState pairs the two component states.
type composedState struct {
	ts model.State
	cs model.State
}

// CloneState implements model.State.
func (s *composedState) CloneState() model.State {
	return &composedState{ts: s.ts.CloneState(), cs: s.cs.CloneState()}
}

// Decision implements model.Decider by delegating to the consumer.
func (s *composedState) Decision() (int, bool) { return model.DecisionOf(s.cs) }

// Proposal implements model.Proposer by delegating to the consumer.
func (s *composedState) Proposal() int {
	if pr, ok := s.cs.(model.Proposer); ok {
		return pr.Proposal()
	}
	return 0
}

// EmulatedOutput implements model.FDOutput by delegating to the
// transformer, so recorded output samples are the emulated Σν+ history.
func (s *composedState) EmulatedOutput() model.FDValue {
	if out, ok := s.ts.(model.FDOutput); ok {
		return out.EmulatedOutput()
	}
	return nil
}

// Round implements model.Rounder by delegating to the consumer.
func (s *composedState) Round() int {
	r, _ := model.RoundOf(s.cs)
	return r
}

// ConsumerState exposes the consumer component's state.
func (s *composedState) ConsumerState() model.State { return s.cs }

// InitState implements model.Automaton.
func (a *Composed) InitState(p model.ProcessID) model.State {
	return &composedState{ts: a.trans.InitState(p), cs: a.consumer.InitState(p)}
}

// Step implements model.Automaton.
func (a *Composed) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*composedState)

	// Route the received message.
	var mT, mC *model.Message
	if m != nil {
		if _, isDAG := m.Payload.(dag.GraphPayload); isDAG {
			mT = m
		} else {
			mC = m
		}
	}

	// The transformer samples the Σν component of this step's pair value.
	quorum, ok := fd.QuorumOf(d)
	if !ok {
		panic(fmt.Sprintf("transform: composed automaton needs a Σν component, got %v", d))
	}
	ts, tSends := a.trans.Step(p, st.ts, mT, fd.QuorumValue{Quorum: quorum})
	st.ts = ts

	// The consumer reads (Ω, Σν+-output_p).
	leader, ok := fd.LeaderOf(d)
	if !ok {
		panic(fmt.Sprintf("transform: composed automaton needs an Ω component, got %v", d))
	}
	emu := st.EmulatedOutput()
	if emu == nil {
		panic("transform: transformer state does not expose an emulated output")
	}
	cs, cSends := a.consumer.Step(p, st.cs, mC, fd.PairValue{
		First:  fd.LeaderValue{Leader: leader},
		Second: emu,
	})
	st.cs = cs

	return st, append(tSends, cSends...)
}
