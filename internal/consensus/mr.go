package consensus

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// QuorumMode selects where an MR process's wait-sets come from.
type QuorumMode int

const (
	// Majority waits for messages from any strict majority of processes —
	// the original Mostéfaoui–Raynal algorithm [6], correct in environments
	// with a majority of correct processes.
	Majority QuorumMode = iota
	// FDQuorum waits for messages from every member of the quorum currently
	// output by the failure detector's quorum component (re-read at each
	// wait-iteration). With Σ this solves uniform consensus in any
	// environment (§6.3, footnote 5); with Σν it is the *naive* adaptation
	// that §6.3 shows violates nonuniform agreement via contamination.
	FDQuorum
)

// MR is the Mostéfaoui–Raynal leader-based consensus algorithm in the
// round/phase form described in §6.3: leader phase, report phase, proposal
// phase. It has no quorum histories, no distrust, and no quorum-awareness
// mechanism — it is both the baseline A_nuc is measured against and the
// foil whose contamination motivates A_nuc's machinery.
type MR struct {
	proposals []int
	mode      QuorumMode
	name      string
}

// NewMRMajority returns the majority-based MR automaton (uses Ω only; the
// failure-detector value may be a bare LeaderValue or any pair with an Ω
// first component).
func NewMRMajority(proposals []int) *MR {
	return newMR(proposals, Majority, "MR-majority")
}

// NewMRSigma returns the Σ-quorum MR automaton. Drive it with (Ω, Σ) pair
// values; it solves uniform consensus in any environment.
func NewMRSigma(proposals []int) *MR {
	return newMR(proposals, FDQuorum, "MR-Σ")
}

// NewMRNaiveNu returns the naive Σν-quorum MR automaton. Drive it with
// (Ω, Σν) pair values; it is NOT a correct nonuniform consensus algorithm —
// it exists to exhibit the contamination scenario of §6.3.
func NewMRNaiveNu(proposals []int) *MR {
	return newMR(proposals, FDQuorum, "MR-naiveΣν")
}

func newMR(proposals []int, mode QuorumMode, name string) *MR {
	if len(proposals) < 2 || len(proposals) > model.MaxProcesses {
		panic(fmt.Sprintf("consensus: invalid system size %d", len(proposals)))
	}
	ps := make([]int, len(proposals))
	copy(ps, proposals)
	return &MR{proposals: ps, mode: mode, name: name}
}

// Name implements model.Automaton.
func (a *MR) Name() string { return a.name }

// N implements model.Automaton.
func (a *MR) N() int { return len(a.proposals) }

// mrState is the local state of one MR process.
type mrState struct {
	p        model.ProcessID
	proposal int

	x  int
	k  int
	ph phase

	leads map[int]map[model.ProcessID]LeadPayload
	reps  map[int]map[model.ProcessID]ReportPayload
	props map[int]map[model.ProcessID]ProposalPayload

	decided  bool
	decision int
}

// CloneState implements model.State.
func (s *mrState) CloneState() model.State {
	c := *s
	c.leads = cloneInbox(s.leads)
	c.reps = cloneInbox(s.reps)
	c.props = cloneInbox(s.props)
	return &c
}

// Decision implements model.Decider.
func (s *mrState) Decision() (int, bool) { return s.decision, s.decided }

// Proposal implements model.Proposer.
func (s *mrState) Proposal() int { return s.proposal }

// Round exposes the current round for instrumentation.
func (s *mrState) Round() int { return s.k }

// InitState implements model.Automaton.
func (a *MR) InitState(p model.ProcessID) model.State {
	return &mrState{
		p:        p,
		proposal: a.proposals[p],
		x:        a.proposals[p],
		ph:       phaseInit,
		leads:    make(map[int]map[model.ProcessID]LeadPayload),
		reps:     make(map[int]map[model.ProcessID]ReportPayload),
		props:    make(map[int]map[model.ProcessID]ProposalPayload),
	}
}

// Step implements model.Automaton.
func (a *MR) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*mrState)
	if m != nil {
		st.handleMessage(m)
	}
	return st, st.advance(a, d)
}

func (s *mrState) handleMessage(m *model.Message) {
	switch pl := m.Payload.(type) {
	case LeadPayload:
		if pl.K >= s.k {
			putInbox(s.leads, pl.K, m.From, pl)
		}
	case ReportPayload:
		if pl.K >= s.k {
			putInbox(s.reps, pl.K, m.From, pl)
		}
	case ProposalPayload:
		if pl.K >= s.k {
			putInbox(s.props, pl.K, m.From, pl)
		}
	default:
		panic(fmt.Sprintf("consensus: MR received unknown payload %T", m.Payload))
	}
}

// majority returns the strict-majority threshold ⌊n/2⌋+1.
func majority(n int) int { return n/2 + 1 }

func (s *mrState) advance(a *MR, d model.FDValue) []model.Send {
	all := model.FullSet(a.N())
	var out []model.Send
	switch s.ph {
	case phaseInit:
		s.startRound(all, &out)

	case phaseLead:
		leader, ok := fd.LeaderOf(d)
		if !ok {
			panic(fmt.Sprintf("consensus: MR needs an Ω component, got %v", d))
		}
		lead, got := s.leads[s.k][leader]
		if !got {
			return out
		}
		s.x = lead.V // MR adopts the leader's estimate unconditionally
		out = append(out, model.Broadcast(all, ReportPayload{K: s.k, V: s.x})...)
		s.ph = phaseReport

	case phaseReport:
		collected, ok := s.collected(a, d, len(s.reps[s.k]), func(q model.ProcessSet) bool {
			return receivedFromAll(s.reps[s.k], q)
		})
		if !ok {
			return out
		}
		pl := ProposalPayload{K: s.k}
		switch a.mode {
		case Majority:
			// Propose v if a majority reported the same estimate.
			if v, got := majorityValue(s.reps[s.k], majority(a.N()), func(r ReportPayload) (int, bool) { return r.V, true }); got {
				pl.V, pl.HasV = v, true
			}
		case FDQuorum:
			if v, unanimous := unanimousValue(s.reps[s.k], collected, func(r ReportPayload) (int, bool) { return r.V, true }); unanimous {
				pl.V, pl.HasV = v, true
			}
		}
		out = append(out, model.Broadcast(all, pl)...)
		s.ph = phaseProp

	case phaseProp:
		collected, ok := s.collected(a, d, len(s.props[s.k]), func(q model.ProcessSet) bool {
			return receivedFromAll(s.props[s.k], q)
		})
		if !ok {
			return out
		}
		props := s.props[s.k]
		switch a.mode {
		case Majority:
			// Adopt any non-? proposal; decide on a majority of identical
			// non-? proposals.
			for _, r := range senderSet(props).Slice() {
				if pl := props[r]; pl.HasV {
					s.x = pl.V
					break
				}
			}
			if v, got := majorityValue(props, majority(a.N()), func(r ProposalPayload) (int, bool) { return r.V, r.HasV }); got {
				s.decide(v)
			}
		case FDQuorum:
			if v, any := anyValue(props, collected); any {
				s.x = v
			}
			if v, unanimous := unanimousValue(props, collected, func(r ProposalPayload) (int, bool) { return r.V, r.HasV }); unanimous {
				s.decide(v)
			}
		}
		s.startRound(all, &out)
	}
	return out
}

// collected reports whether the current wait-set condition holds and, for
// FDQuorum mode, which quorum satisfied it.
func (s *mrState) collected(a *MR, d model.FDValue, count int, haveAll func(model.ProcessSet) bool) (model.ProcessSet, bool) {
	switch a.mode {
	case Majority:
		return model.EmptySet, count >= majority(a.N())
	case FDQuorum:
		q, ok := fd.QuorumOf(d)
		if !ok {
			panic(fmt.Sprintf("consensus: MR (quorum mode) needs a quorum component, got %v", d))
		}
		return q, haveAll(q)
	default:
		panic("consensus: unknown quorum mode")
	}
}

func (s *mrState) decide(v int) {
	if !s.decided {
		s.decided = true
		s.decision = v
	}
}

func (s *mrState) startRound(all model.ProcessSet, out *[]model.Send) {
	s.k++
	pruneInbox(s.leads, s.k)
	pruneInbox(s.reps, s.k)
	pruneInbox(s.props, s.k)
	*out = append(*out, model.Broadcast(all, LeadPayload{K: s.k, V: s.x})...)
	s.ph = phaseLead
}

// majorityValue returns a value reported by at least threshold senders.
func majorityValue[P any](byP map[model.ProcessID]P, threshold int, val func(P) (int, bool)) (int, bool) {
	counts := make(map[int]int)
	for _, pl := range byP {
		if v, ok := val(pl); ok {
			counts[v]++
			if counts[v] >= threshold {
				return v, true
			}
		}
	}
	return 0, false
}

// senderSet returns the set of processes with a buffered message.
func senderSet[P any](byP map[model.ProcessID]P) model.ProcessSet {
	var s model.ProcessSet
	for p := range byP {
		s = s.Add(p)
	}
	return s
}
