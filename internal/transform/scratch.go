package transform

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// RoundPayload is the message (k, p) of the from-scratch Σ algorithm; the
// sender p is the message's From field.
type RoundPayload struct {
	K int
}

// Kind implements model.Payload.
func (RoundPayload) Kind() string { return "RND" }

// String implements model.Payload.
func (m RoundPayload) String() string { return fmt.Sprintf("RND(k=%d)", m.K) }

// ScratchSigma implements Σ "from scratch" — without any failure detector —
// in environments where fewer than half the processes may crash
// (Theorem 7.1, IF direction). Each process proceeds in asynchronous
// rounds: it sends (k, p) to all, waits for n−t round-k messages, and
// outputs the set of n−t processes they came from. Since t < n/2 every
// output contains a majority, so any two outputs intersect; eventually only
// correct processes send, so outputs at correct processes complete.
//
// The automaton ignores its failure-detector value; drive it with any
// history (e.g. fd.Null).
type ScratchSigma struct {
	n, t        int
	includeSelf bool // force p into its own quorums (Σν+ self-inclusion)
}

// NewScratchSigma returns the from-scratch Σ automaton for environment E_t
// over n processes. It panics if t ≥ n/2: the ONLY-IF direction of
// Theorem 7.1 (see the partition experiment) shows no such algorithm exists
// there.
func NewScratchSigma(n, t int) *ScratchSigma {
	if 2*t >= n {
		panic(fmt.Sprintf("transform: ScratchSigma requires t < n/2 (got n=%d, t=%d)", n, t))
	}
	return NewThresholdQuorum(n, t)
}

// NewThresholdQuorum returns the (n−t)-threshold quorum algorithm without
// the t < n/2 restriction. For t ≥ n/2 it is the natural — but doomed —
// candidate for implementing Σ: the partition experiment (Theorem 7.1,
// ONLY-IF) runs it through the runs R and R′ of the proof and exhibits the
// intersection violation.
func NewThresholdQuorum(n, t int) *ScratchSigma {
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("transform: invalid system size %d", n))
	}
	if t < 0 || t >= n {
		panic(fmt.Sprintf("transform: invalid fault bound t=%d for n=%d", t, n))
	}
	return &ScratchSigma{n: n, t: t}
}

// Name implements model.Automaton.
func (a *ScratchSigma) Name() string { return "Σ-scratch" }

// N implements model.Automaton.
func (a *ScratchSigma) N() int { return a.n }

// scratchState is the local state of one from-scratch Σ process.
type scratchState struct {
	k       int
	started bool
	output  model.ProcessSet
	// senders[k] lists round-k senders in arrival order, so the quorum is
	// "the set of n−t processes from which it received a message in round
	// k" — the first n−t arrivals.
	senders map[int][]model.ProcessID
}

// CloneState implements model.State.
func (s *scratchState) CloneState() model.State {
	c := *s
	c.senders = make(map[int][]model.ProcessID, len(s.senders))
	for k, v := range s.senders {
		c.senders[k] = append([]model.ProcessID(nil), v...)
	}
	return &c
}

// EmulatedOutput implements model.FDOutput.
func (s *scratchState) EmulatedOutput() model.FDValue {
	return fd.QuorumValue{Quorum: s.output}
}

// InitState implements model.Automaton.
func (a *ScratchSigma) InitState(p model.ProcessID) model.State {
	return &scratchState{
		output:  model.FullSet(a.n),
		senders: make(map[int][]model.ProcessID),
	}
}

// Step implements model.Automaton.
func (a *ScratchSigma) Step(p model.ProcessID, s model.State, m *model.Message, _ model.FDValue) (model.State, []model.Send) {
	st := s.(*scratchState)
	var out []model.Send
	if m != nil {
		pl, ok := m.Payload.(RoundPayload)
		if !ok {
			panic(fmt.Sprintf("transform: Σ-scratch received unknown payload %T", m.Payload))
		}
		if pl.K >= st.k { // stale rounds are no longer needed
			st.senders[pl.K] = append(st.senders[pl.K], m.From)
		}
	}
	if !st.started {
		st.started = true
		st.k = 1
		return st, model.Broadcast(model.FullSet(a.n), RoundPayload{K: st.k})
	}
	need := a.n - a.t
	if got := st.senders[st.k]; len(got) >= need {
		var q model.ProcessSet
		for _, sender := range got[:need] {
			q = q.Add(sender)
		}
		if a.includeSelf {
			q = q.Add(p)
		}
		st.output = q
		delete(st.senders, st.k)
		st.k++
		out = model.Broadcast(model.FullSet(a.n), RoundPayload{K: st.k})
	}
	return st, out
}

// NewScratchSigmaNuPlus returns a from-scratch Σν+ for environments with
// t < n/2 crashes: the ScratchSigma algorithm with the owner forced into
// every quorum. The output satisfies all four Σν+ properties: quorums are
// supersets of (n−t)-sets so any two intersect (making nonuniform
// intersection and conditional nonintersection immediate), the owner is
// always included, and eventually only correct processes answer rounds.
// Combined with the heartbeat Ω of internal/hb this gives a fully
// oracle-free (Ω, Σν+) — see NewOracleFree and nuconsensus.OracleFreeANuc.
func NewScratchSigmaNuPlus(n, t int) *ScratchSigma {
	s := NewScratchSigma(n, t)
	s.includeSelf = true
	return s
}
