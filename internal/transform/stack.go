package transform

import (
	"fmt"

	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
)

// Stack is the detector composition the paper's results run on: one or two
// emitters — automata whose states expose a failure-detector output
// variable (§2.9) — step beside a consumer that reads them as its failure
// detector. Theorem 6.28 runs T_{Σν→Σν+} beside A_nuc (NewComposed), §7's
// IF direction stacks the heartbeat Ω and the from-scratch Σν+ under A_nuc
// (NewOracleFree), and NewFeed puts any one emitter under any consumer.
//
// Each atomic step advances every emitter in order, with the step's message
// if the emitter owns its payload and λ otherwise, and then the consumer,
// with the message only if no emitter owned it. Emitter sends come before
// the consumer's. The stack's own output variable is its emitter's, or the
// (first, second) pair of its two emitters' outputs.
type Stack struct {
	name     string
	emitters []detector
	consumer model.Automaton
	// sample is what every emitter samples, given the step's value.
	sample func(d model.FDValue) model.FDValue
	// read is what the consumer reads, given the step's value and the
	// stack's output after the emitters stepped.
	read func(d, out model.FDValue) model.FDValue
}

// detector is an emitter, whose states must implement model.FDOutput, with
// the received payloads it owns.
type detector struct {
	model.Automaton
	owns func(model.Payload) bool
}

// is reports whether a payload has type T.
func is[T model.Payload](pl model.Payload) bool { _, ok := pl.(T); return ok }

func newStack(name string, sample func(model.FDValue) model.FDValue, read func(d, out model.FDValue) model.FDValue,
	consumer model.Automaton, emitters ...detector) *Stack {
	for _, e := range emitters {
		if e.N() != consumer.N() {
			panic(fmt.Sprintf("transform: component sizes differ (%s has %d, %s has %d)",
				e.Name(), e.N(), consumer.Name(), consumer.N()))
		}
	}
	return &Stack{name: name, emitters: emitters, consumer: consumer, sample: sample, read: read}
}

// NewComposed is the construction of Theorem 6.28: the transformer
// T_{Σν→Σν+} samples the Σν component of the step's (Ω, Σν) pair, and the
// consumer (A_nuc) reads (Ω, output_p of the transformer). DAG snapshots go
// to the transformer. The stack's output is the emulated Σν+. Drive it
// with PairValue histories (Ω, Σν).
func NewComposed(trans, consumer model.Automaton) *Stack {
	return newStack(fmt.Sprintf("%s∘%s", trans.Name(), consumer.Name()),
		func(d model.FDValue) model.FDValue {
			// A_DAG records this value in every DAG node, and DAG nodes
			// cross the wire: the quorum alone, never the pair.
			quorum, ok := fd.QuorumOf(d)
			if !ok {
				panic(fmt.Sprintf("transform: composed automaton needs a Σν component, got %v", d))
			}
			return fd.QuorumValue{Quorum: quorum}
		},
		func(d, out model.FDValue) model.FDValue {
			leader, ok := fd.LeaderOf(d)
			if !ok {
				panic(fmt.Sprintf("transform: composed automaton needs an Ω component, got %v", d))
			}
			return fd.PairValue{First: fd.LeaderValue{Leader: leader}, Second: out}
		},
		consumer, detector{trans, is[dag.GraphPayload]})
}

// NewOracleFree stacks two from-scratch detectors, an Ω emitter (the
// heartbeat Ω of internal/hb) and a quorum emitter (the threshold Σν+ of
// Theorem 7.1's IF direction), under a consumer (typically A_nuc) that
// reads the (Ω, Σν+) pair of their outputs. Heartbeats go to the Ω
// emitter and round messages to the quorum emitter. The result needs no
// failure detector at all in environments with a correct majority and
// eventual timeliness: drive it with any history (fd.Null), which it
// ignores. The stack's output is the pair the consumer sees.
func NewOracleFree(omega, sigma, consumer model.Automaton) *Stack {
	return newStack(fmt.Sprintf("%s+%s∘%s", omega.Name(), sigma.Name(), consumer.Name()),
		func(model.FDValue) model.FDValue { return fd.NullValue{} },
		func(_, out model.FDValue) model.FDValue { return out },
		consumer, detector{omega, is[hb.HeartbeatPayload]}, detector{sigma, is[RoundPayload]})
}

// NewFeed puts one emitter under a consumer that reads the emitter's
// output as its failure detector — e.g. the heartbeat ◇P under
// Chandra–Toueg for an oracle-free uniform consensus stack. emitterOwns
// routes received messages (true → emitter, false → consumer). The
// emitter samples nil.
func NewFeed(emitter, consumer model.Automaton, emitterOwns func(model.Payload) bool) *Stack {
	return newStack(fmt.Sprintf("%s▸%s", emitter.Name(), consumer.Name()),
		func(model.FDValue) model.FDValue { return nil },
		func(_, out model.FDValue) model.FDValue { return out },
		consumer, detector{emitter, emitterOwns})
}

// Name implements model.Automaton.
func (a *Stack) Name() string { return a.name }

// N implements model.Automaton.
func (a *Stack) N() int { return a.consumer.N() }

// stackState holds the emitters' states, in order, and the consumer's.
type stackState struct {
	es [2]model.State
	cs model.State
}

// CloneState implements model.State.
func (s *stackState) CloneState() model.State {
	c := &stackState{}
	for i, e := range s.es {
		if e != nil {
			c.es[i] = e.CloneState()
		}
	}
	c.cs = s.cs.CloneState()
	return c
}

// Decision implements model.Decider by delegating to the consumer.
func (s *stackState) Decision() (int, bool) { return model.DecisionOf(s.cs) }

// Proposal implements model.Proposer by delegating to the consumer.
func (s *stackState) Proposal() int {
	if pr, ok := s.cs.(model.Proposer); ok {
		return pr.Proposal()
	}
	return 0
}

// Round implements model.Rounder by delegating to the consumer.
func (s *stackState) Round() int {
	r, _ := model.RoundOf(s.cs)
	return r
}

// DecidedRound implements model.DecidedRounder by delegating to the consumer.
func (s *stackState) DecidedRound() (int, bool) { return model.DecidedRoundOf(s.cs) }

// EmulatedOutput implements model.FDOutput: the emitter's output, or the
// (first, second) pair of two emitters' outputs.
func (s *stackState) EmulatedOutput() model.FDValue {
	out := s.es[0].(model.FDOutput).EmulatedOutput()
	if s.es[1] == nil {
		return out
	}
	return fd.PairValue{First: out, Second: s.es[1].(model.FDOutput).EmulatedOutput()}
}

// InitState implements model.Automaton.
func (a *Stack) InitState(p model.ProcessID) model.State {
	st := &stackState{}
	for i, e := range a.emitters {
		st.es[i] = e.InitState(p)
	}
	st.cs = a.consumer.InitState(p)
	return st
}

// Step implements model.Automaton.
func (a *Stack) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*stackState)
	in := a.sample(d)
	var out, sends []model.Send
	owned := false
	for i, e := range a.emitters {
		var mi *model.Message
		if m != nil && e.owns(m.Payload) {
			mi, owned = m, true
		}
		st.es[i], sends = e.Step(p, st.es[i], mi, in)
		if i == 0 {
			out = sends // reused, not copied: a copy costs an allocation per step
		} else {
			out = append(out, sends...)
		}
	}
	mc := m
	if owned {
		mc = nil
	}
	st.cs, sends = a.consumer.Step(p, st.cs, mc, a.read(d, st.EmulatedOutput()))
	return st, append(out, sends...)
}
