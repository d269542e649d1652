package model

import "fmt"

// Configuration is a pair (s, M): a function s mapping each process to its
// local state, plus the message buffer M (§2.5).
type Configuration struct {
	States []State
	Buffer *MessageBuffer
}

// InitialConfiguration returns the initial configuration of a: every process
// in its initial state and an empty message buffer.
func InitialConfiguration(a Automaton) *Configuration {
	n := a.N()
	states := make([]State, n)
	for p := 0; p < n; p++ {
		states[p] = a.InitState(ProcessID(p))
	}
	return &Configuration{States: states, Buffer: NewMessageBuffer()}
}

// Clone returns a deep copy of the configuration: the fork a caller takes
// before applying steps it may want to take back. Messages are shared (they
// are immutable); states are cloned.
func (c *Configuration) Clone() *Configuration {
	states := make([]State, len(c.States))
	for i, s := range c.States {
		states[i] = s.CloneState()
	}
	return &Configuration{States: states, Buffer: c.Buffer.Clone()}
}

// Step is a tuple e = (p, m, d, A): process p takes a step in which it
// receives message m (nil for λ) and sees failure-detector value d (§2.4).
// The algorithm A is implicit: a Step is always applied through an
// Automaton.
type Step struct {
	P ProcessID
	M *Message // nil encodes the empty message λ
	D FDValue
}

// String implements fmt.Stringer.
func (e Step) String() string {
	msg := "λ"
	if e.M != nil {
		msg = e.M.String()
	}
	return fmt.Sprintf("(%s, %s, %s)", e.P, msg, e.D)
}

// Applicable reports whether e is applicable to c: m ∈ M ∪ {λ} (§2.5).
func (e Step) Applicable(c *Configuration) bool {
	if e.P < 0 || int(e.P) >= len(c.States) {
		return false
	}
	return e.M == nil || c.Buffer.Contains(e.M)
}

// Apply applies step e to configuration c in place using automaton a, and
// returns the messages sent: States[e.P] is handed to Step and replaced by
// what Step returns, so c becomes e(c) and the old c is gone — Clone first
// to keep it. It panics if e is not applicable: callers are
// expected to check Applicable (or construct steps from buffer contents).
// The message passed to the automaton is the buffer's own instance of e.M's
// identity, so replays of a schedule in a different configuration (e.g. a
// merged run) see that configuration's payloads.
func (c *Configuration) Apply(a Automaton, e Step) []*Message {
	m := e.M
	if m != nil {
		if m = c.Buffer.Take(m); m == nil {
			panic(fmt.Sprintf("model: step %v not applicable: message not in buffer", e))
		}
	}
	ns, sends := a.Step(e.P, c.States[e.P], m, e.D)
	c.States[e.P] = ns
	return c.Buffer.Put(e.P, sends)
}
