package model

// FDValue is the value d a process obtains when it queries its local
// failure-detector module in a step (§2.4). Concrete values live in the fd
// package (leader values, quorum values, and pairs); the model only needs to
// carry them opaquely through steps, schedules and DAG samples.
//
// FDValues must be immutable: they are shared between histories, traces and
// DAG nodes.
type FDValue interface {
	String() string
}

// History is a failure-detector history H : Π × ℕ → R (§2.3): H(p, t) is
// the value output by the failure-detector module of process p at time t.
type History interface {
	Output(p ProcessID, t Time) FDValue
}

// State is the local state of one process automaton. A state has exactly
// one owner — the configuration or driver that holds it — and Step consumes
// it (see Automaton). CloneState is how an owner forks: it returns a deep
// copy sharing no mutable memory with the receiver, so either side can be
// stepped without the other noticing. It must not write to the receiver
// (the explorer clones one state from several goroutines). The only callers
// are the places a configuration has to survive a step: Configuration.Clone
// (behind Schedule.Apply and ApplicableTo, which compute S(C) without
// consuming C) and the explorer's fork.
type State interface {
	CloneState() State
}

// Automaton is the deterministic automaton A(p) of one algorithm (§2.4).
// A single Automaton value describes the whole collection {A(p)}: InitState
// gives each process's initial state and Step is the transition function.
//
// One Step call is one atomic step of the model: the process receives a
// single message m (nil encodes the empty message λ; a Merger may be handed
// several of a link's messages joined into one), queries its failure
// detector receiving d, changes state, and sends messages. The new state
// and the messages sent are uniquely determined by (p, s, m, d).
//
// Ownership: the caller owns s and gives it up by calling Step. Step may
// mutate s in place and return it; the caller continues with the returned
// state and must not look at s again. Whoever needs the configuration
// before the step — to branch a schedule, to fork an explored state —
// calls CloneState (or Configuration.Clone) first. Three obligations keep
// that rule sufficient: InitState returns fresh memory that aliases neither
// the automaton nor an earlier InitState result; a payload handed out in a
// Send never aliases the state (it is immutable from then on, and shared
// by all its recipients); and a driver keeps no reference to a state it
// has stepped.
type Automaton interface {
	// Name identifies the algorithm in traces and errors.
	Name() string
	// N returns the number of processes the automaton is configured for.
	N() int
	// InitState returns process p's state in the initial configuration.
	InitState(p ProcessID) State
	// Step applies one atomic step of process p to s, which it may consume.
	Step(p ProcessID, s State, m *Message, d FDValue) (State, []Send)
}

// Decider is implemented by states of consensus automata so that drivers
// and checkers can observe decisions without knowing the algorithm.
type Decider interface {
	// Decision returns the decided value, and whether the process has
	// decided. Decisions are irrevocable (§2.8).
	Decision() (int, bool)
}

// Idler is implemented by automata that can tell, without stepping, that a
// λ-step would be a stutter. Idle(p, s, d) true means that Step(p, s, nil,
// d) would return no sends and leave s unchanged, so a run without that
// step has the same receipts, sends and decisions; a driver may skip it
// and wait for an arrival instead. Idle must not change s. False promises
// nothing: the step may still change nothing. A predicate that says idle
// wrongly is a hang, not a delay, since a driver that skips a step asks
// again under the same state.
type Idler interface {
	Idle(p ProcessID, s State, d FDValue) bool
}

// Merger is implemented by automata for which one receipt of Merge(a, b)
// is the receipt of a and then of b under one FD value, with no step of
// the receiver between them. A driver may then join the payloads one
// sender sent one receiver, in link order, into one message: on the
// receiving end several pending messages of a link become one step, and
// on the sending end the sends of several steps to one destination become
// one message. A link may delay messages (§2.1), so joining them only
// withholds steps the model never promised. Neither a nor b supersedes
// (SupersededPayload): a superseding payload is never merged. The result
// must not alias mutable memory of a or b.
type Merger interface {
	Merge(a, b Payload) Payload
}

// DecisionOf extracts the decision from a state if it exposes one.
func DecisionOf(s State) (int, bool) {
	d, ok := s.(Decider)
	if !ok {
		return 0, false
	}
	return d.Decision()
}

// Proposer is implemented by states of consensus automata that record the
// value the process proposed, for validity checking.
type Proposer interface {
	Proposal() int
}

// Rounder is implemented by states of round-based algorithms to expose the
// current asynchronous round for instrumentation.
type Rounder interface {
	Round() int
}

// RoundOf extracts the current round from a state if it exposes one.
func RoundOf(s State) (int, bool) {
	r, ok := s.(Rounder)
	if !ok {
		return 0, false
	}
	return r.Round(), true
}

// DecidedRounder is implemented by states of round-based consensus
// algorithms that record the round whose test decided. Round cannot stand
// in for it: a process may start the next round in the step that decides.
type DecidedRounder interface {
	DecidedRound() (int, bool)
}

// DecidedRoundOf extracts the deciding round from a decided state that
// records one.
func DecidedRoundOf(s State) (int, bool) {
	r, ok := s.(DecidedRounder)
	if !ok {
		return 0, false
	}
	return r.DecidedRound()
}

// FDOutput is implemented by states of failure-detector transformation
// algorithms (T_{D→Σν}, T_{Σν→Σν+}, the from-scratch Σ) to expose the
// emulated failure-detector output variable of §2.9.
type FDOutput interface {
	// EmulatedOutput returns the current value of output_p.
	EmulatedOutput() FDValue
}
