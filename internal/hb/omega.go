// Package hb implements the leader failure detector Ω from scratch with
// heartbeats and adaptive timeouts. Ω is not implementable in a purely
// asynchronous system (that would contradict FLP), but it is implementable
// under partial synchrony — eventually-bounded message delays and process
// speeds — which the simulator's fair schedulers provide after an arbitrary
// prefix (sim.PartialSyncScheduler makes the prefix explicitly adversarial).
//
// Together with the from-scratch Σν+ of Theorem 7.1's IF direction
// (transform.NewScratchSigmaNuPlus) and A_nuc, this closes the loop from
// the paper back to a deployable system: in environments with a correct
// majority and eventual timeliness, nonuniform consensus needs no oracle at
// all (see transform.NewOracleFree, nuconsensus.OracleFreeANuc and
// examples/oraclefree).
package hb

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// HeartbeatPayload is a liveness beacon. A newer heartbeat from the same
// sender carries strictly more information than an older one, so pending
// heartbeats collapse (model.SupersededPayload) — exactly the property that
// keeps heartbeat queues from masking timeliness.
type HeartbeatPayload struct{}

// Kind implements model.Payload.
func (HeartbeatPayload) Kind() string { return "HB" }

// String implements model.Payload.
func (HeartbeatPayload) String() string { return "HB" }

// SupersedesOlder implements model.SupersededPayload.
func (HeartbeatPayload) SupersedesOlder() {}

// Omega emits a leader estimate from heartbeats: each process beats every
// Every of its own steps, suspects processes whose beats are overdue by an
// adaptive per-process timeout (measured in own steps), and trusts the
// smallest unsuspected process. False suspicions grow the timeout, so under
// eventual timeliness suspicion of correct processes ceases and all correct
// processes converge on the smallest correct one — the Ω specification.
type Omega struct {
	n       int
	every   int  // heartbeat period in own steps
	timeout int  // initial timeout in own steps
	suspect bool // emit the ◇P suspect set instead of the Ω leader
}

// NewOmega returns the heartbeat Ω implementation. every is the heartbeat
// period (default 2 if ≤ 0) and timeout the initial suspicion timeout
// (default 8·n if ≤ 0).
func NewOmega(n, every, timeout int) *Omega {
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("hb: invalid system size %d", n))
	}
	if every <= 0 {
		every = 2
	}
	if timeout <= 0 {
		timeout = 8 * n
	}
	return &Omega{n: n, every: every, timeout: timeout}
}

// NewSuspector returns the same heartbeat machinery emitting its suspicion
// set instead of a leader — an eventually perfect failure detector (◇P)
// under partial synchrony: after timeouts adapt past the eventual delay
// bound, correct processes suspect exactly the crashed ones.
func NewSuspector(n, every, timeout int) *Omega {
	a := NewOmega(n, every, timeout)
	a.suspect = true
	return a
}

// Name implements model.Automaton.
func (a *Omega) Name() string {
	if a.suspect {
		return "◇P-heartbeat"
	}
	return "Ω-heartbeat"
}

// N implements model.Automaton.
func (a *Omega) N() int { return a.n }

// omegaState is one process's heartbeat bookkeeping.
type omegaState struct {
	p        model.ProcessID
	clock    int   // own step counter
	lastBeat []int // clock value when q's last heartbeat arrived
	timeout  []int // adaptive per-process timeout
	output   model.ProcessID
	suspect  bool
}

// CloneState implements model.State.
func (s *omegaState) CloneState() model.State {
	c := *s
	c.lastBeat = append([]int(nil), s.lastBeat...)
	c.timeout = append([]int(nil), s.timeout...)
	return &c
}

// EmulatedOutput implements model.FDOutput.
func (s *omegaState) EmulatedOutput() model.FDValue {
	if s.suspect {
		return fd.SuspectsValue{Suspects: s.Suspects()}
	}
	return fd.LeaderValue{Leader: s.output}
}

// Suspects returns the currently suspected processes (a ◇P-style view),
// exposed for instrumentation and the E11 experiment.
func (s *omegaState) Suspects() model.ProcessSet {
	var out model.ProcessSet
	for q := 0; q < len(s.lastBeat); q++ {
		if model.ProcessID(q) == s.p {
			continue // never suspect yourself
		}
		if s.clock-s.lastBeat[q] > s.timeout[q] {
			out = out.Add(model.ProcessID(q))
		}
	}
	return out
}

// SuspectHolder is implemented by states exposing a suspicion set.
type SuspectHolder interface {
	Suspects() model.ProcessSet
}

// InitState implements model.Automaton.
func (a *Omega) InitState(p model.ProcessID) model.State {
	st := &omegaState{
		p:        p,
		lastBeat: make([]int, a.n),
		timeout:  make([]int, a.n),
		output:   p,
		suspect:  a.suspect,
	}
	for i := range st.timeout {
		st.timeout[i] = a.timeout
	}
	return st
}

// Step implements model.Automaton.
func (a *Omega) Step(p model.ProcessID, s model.State, m *model.Message, _ model.FDValue) (model.State, []model.Send) {
	st := s.(*omegaState)
	st.clock++
	if m != nil {
		if _, ok := m.Payload.(HeartbeatPayload); !ok {
			panic(fmt.Sprintf("hb: unknown payload %T", m.Payload))
		}
		q := m.From
		if st.clock-st.lastBeat[q] > st.timeout[q] {
			// q was suspected and proved alive: it was a false suspicion
			// (or q recovered order); widen q's timeout so that, under
			// eventual timeliness, suspicion of correct processes ceases.
			st.timeout[q] *= 2
		}
		st.lastBeat[q] = st.clock
	}
	// Trust the smallest unsuspected process (self counts as unsuspected).
	leader := p
	suspects := st.Suspects()
	for q := 0; q < a.n; q++ {
		if pid := model.ProcessID(q); !suspects.Has(pid) {
			leader = pid
			break
		}
	}
	st.output = leader

	var out []model.Send
	if st.clock%a.every == 0 {
		out = model.Broadcast(model.FullSet(a.n).Remove(p), HeartbeatPayload{})
	}
	return st, out
}
