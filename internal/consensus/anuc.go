package consensus

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// phase identifies where in the round structure a process is parked. The
// pseudocode's blocking waits each query the failure detector, so the model
// permits at most one wait-iteration per atomic step; the straight-line
// code after a completed wait (sending the next message, starting the next
// round) runs in the same step.
type phase int

const (
	phaseInit   phase = iota // before the first round's LEAD send
	phaseLead                // waiting at Fig. 4 line 16
	phaseReport              // waiting at Fig. 4 line 20
	phaseProp                // in the repeat loop of Fig. 4 lines 25–28
)

func (ph phase) String() string {
	switch ph {
	case phaseInit:
		return "init"
	case phaseLead:
		return "lead"
	case phaseReport:
		return "report"
	case phaseProp:
		return "prop"
	default:
		return fmt.Sprintf("phase(%d)", int(ph))
	}
}

// ANuc is algorithm A_nuc (Figs. 4–5): nonuniform consensus using
// (Ω, Σν+) in any environment. Steps must be driven with PairValue
// failure-detector values whose first component is a LeaderValue (Ω) and
// whose second is a QuorumValue (Σν+).
type ANuc struct {
	proposals []int
	ablation  Ablation
}

// Ablation disables pieces of A_nuc's machinery for the ablation
// experiments (Q5): each switch removes one of the defenses §6.3 motivates,
// and the experiments show which consensus property breaks without it.
type Ablation struct {
	// NoDistrust makes distrusts(q) always false: processes adopt leader
	// estimates and accept proposal quorums unconditionally, as in the
	// naive Mostéfaoui–Raynal adaptation.
	NoDistrust bool
	// NoSeenGate drops the seen_p[Q_p] < k_p condition of line 30: a
	// process may decide before its quorum has acknowledged the SAW
	// message, losing the quorum-awareness property (Lemma 6.24).
	NoSeenGate bool
}

// NewANuc returns the A_nuc automaton for a system of n = len(proposals)
// processes in which process p proposes proposals[p].
func NewANuc(proposals []int) *ANuc {
	return NewANucAblated(proposals, Ablation{})
}

// NewANucAblated returns A_nuc with parts of its machinery disabled. Only
// the zero Ablation yields a correct nonuniform consensus algorithm.
func NewANucAblated(proposals []int, ab Ablation) *ANuc {
	if len(proposals) < 2 || len(proposals) > model.MaxProcesses {
		panic(fmt.Sprintf("consensus: invalid system size %d", len(proposals)))
	}
	ps := make([]int, len(proposals))
	copy(ps, proposals)
	return &ANuc{proposals: ps, ablation: ab}
}

// Name implements model.Automaton.
func (a *ANuc) Name() string {
	switch {
	case a.ablation.NoDistrust && a.ablation.NoSeenGate:
		return "A_nuc[-distrust,-seen]"
	case a.ablation.NoDistrust:
		return "A_nuc[-distrust]"
	case a.ablation.NoSeenGate:
		return "A_nuc[-seen]"
	default:
		return "A_nuc"
	}
}

// N implements model.Automaton.
func (a *ANuc) N() int { return len(a.proposals) }

// anucState is the local state of one A_nuc process (Fig. 4 lines 1–11
// plus the wait bookkeeping).
type anucState struct {
	p        model.ProcessID
	proposal int

	x     int          // estimate x_p
	k     int          // round k_p
	store HistoryStore // quorum histories H_p (owned by default, shared in rsm)
	ph    phase

	sent    map[model.ProcessSet]bool             // sent_p[Q]
	acks    map[model.ProcessSet]model.ProcessSet // Acks_p[Q]
	roundOf map[model.ProcessSet]int              // round_p[Q]
	seen    map[model.ProcessSet]int              // seen_p[Q]; missing key = ∞

	leads map[int]map[model.ProcessID]LeadPayload
	reps  map[int]map[model.ProcessID]ReportPayload
	props map[int]map[model.ProcessID]ProposalPayload

	decided  bool
	decision int
	decidedQ model.ProcessSet // Q_p of the deciding line-30 test
	decidedK int              // k_p of the deciding line-30 test
}

// CloneState implements model.State.
func (s *anucState) CloneState() model.State {
	c := *s
	c.store = s.store.CloneStore()
	c.sent = make(map[model.ProcessSet]bool, len(s.sent))
	for k, v := range s.sent {
		c.sent[k] = v
	}
	c.acks = make(map[model.ProcessSet]model.ProcessSet, len(s.acks))
	for k, v := range s.acks {
		c.acks[k] = v
	}
	c.roundOf = make(map[model.ProcessSet]int, len(s.roundOf))
	for k, v := range s.roundOf {
		c.roundOf[k] = v
	}
	c.seen = make(map[model.ProcessSet]int, len(s.seen))
	for k, v := range s.seen {
		c.seen[k] = v
	}
	c.leads = cloneInbox(s.leads)
	c.reps = cloneInbox(s.reps)
	c.props = cloneInbox(s.props)
	return &c
}

// cloneInbox deep-copies the per-round inboxes; payloads are immutable and
// shared.
func cloneInbox[P any](in map[int]map[model.ProcessID]P) map[int]map[model.ProcessID]P {
	out := make(map[int]map[model.ProcessID]P, len(in))
	for k, byP := range in {
		m := make(map[model.ProcessID]P, len(byP))
		for p, v := range byP {
			m[p] = v
		}
		out[k] = m
	}
	return out
}

// Decision implements model.Decider.
func (s *anucState) Decision() (int, bool) { return s.decision, s.decided }

// Proposal implements model.Proposer.
func (s *anucState) Proposal() int { return s.proposal }

// Round exposes the current round for instrumentation.
func (s *anucState) Round() int { return s.k }

// DecidedWith exposes, for instrumentation, the quorum Q_p and round k_p of
// the line-30 test that decided: the PROPs consumed are (PROP, k_p) from
// every member of Q_p, and Lemma 6.24 says each member held (p, Q_p) in its
// history when it sent its one.
func (s *anucState) DecidedWith() (model.ProcessSet, int, bool) {
	return s.decidedQ, s.decidedK, s.decided
}

// DecidedRound implements model.DecidedRounder: k_p of the deciding
// line-30 test. Round has already moved on to k_p + 1 by then, since the
// step that decides also runs line 13 (startRound).
func (s *anucState) DecidedRound() (int, bool) { return s.decidedK, s.decided }

// InitState implements model.Automaton: p proposes its entry of the
// constructor's vector and owns its histories (Fig. 4's shape).
func (a *ANuc) InitState(p model.ProcessID) model.State {
	return a.InitStateProposing(p, a.proposals[p], newOwnedHistories(a.N()))
}

// InitStateProposing returns p's initial state proposing v, with H_p kept
// in store. Multi-instance users (the replicated log in internal/rsm)
// determine proposals at runtime — a process's slot-k proposal is its next
// unappended command, which the constructor's static vector cannot know —
// and hand every live slot instance of a process the one per-process store.
func (a *ANuc) InitStateProposing(p model.ProcessID, v int, store HistoryStore) model.State {
	return &anucState{
		p:        p,
		proposal: v,
		x:        v,
		store:    store,
		ph:       phaseInit,
		sent:     make(map[model.ProcessSet]bool),
		acks:     make(map[model.ProcessSet]model.ProcessSet),
		roundOf:  make(map[model.ProcessSet]int),
		seen:     make(map[model.ProcessSet]int),
		leads:    make(map[int]map[model.ProcessID]LeadPayload),
		reps:     make(map[int]map[model.ProcessID]ReportPayload),
		props:    make(map[int]map[model.ProcessID]ProposalPayload),
	}
}

// Step implements model.Automaton.
func (a *ANuc) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*anucState)
	var out []model.Send
	if m != nil {
		out = append(out, st.handleMessage(m)...)
	}
	out = append(out, st.advance(a, d)...)
	return st, out
}

// handleMessage buffers phase messages and runs the upon-handlers of
// Fig. 4 lines 35–42 (SAW and ACK), which the cobegin makes part of the
// same atomic step as the main loop's wait-iteration.
func (s *anucState) handleMessage(m *model.Message) []model.Send {
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
	case SawPayload:
		// Lines 35–37: record that m.From saw quorum pl.Q and acknowledge
		// with the current round number.
		s.store.Add(m.From, pl.Q)
		return []model.Send{{To: m.From, Payload: AckPayload{Q: pl.Q, K: s.k}}}
	case AckPayload:
		// Lines 39–42.
		s.acks[pl.Q] = s.acks[pl.Q].Add(m.From)
		if pl.K > s.roundOf[pl.Q] {
			s.roundOf[pl.Q] = pl.K
		}
		if s.acks[pl.Q] == pl.Q {
			s.seen[pl.Q] = s.roundOf[pl.Q]
		}
	default:
		panic(fmt.Sprintf("consensus: A_nuc received unknown payload %T", m.Payload))
	}
	return nil
}

func putInbox[P any](in map[int]map[model.ProcessID]P, k int, from model.ProcessID, pl P) {
	byP := in[k]
	if byP == nil {
		byP = make(map[model.ProcessID]P)
		in[k] = byP
	}
	byP[from] = pl
}

// advance executes at most one wait-iteration of the current phase with
// this step's failure-detector value, plus the straight-line code up to the
// next wait if the wait completed.
func (s *anucState) advance(a *ANuc, d model.FDValue) []model.Send {
	all := model.FullSet(a.N())
	var out []model.Send
	leader, q, done := s.wait(d)
	if s.ph == phaseReport || s.ph == phaseProp {
		// get_quorum records the quorum in H_p[p] (Fig. 5 line 49) on every
		// call, whether or not the wait completes.
		s.store.Add(s.p, q)
	}
	if !done {
		return out
	}
	switch s.ph {
	case phaseInit:
		s.startRound(all, &out)

	case phaseLead:
		lead := s.leads[s.k][leader]
		// Line 17: import_history(Hist_q).
		s.store.Import(lead.Hist)
		// Line 18: adopt the leader's estimate unless distrusted.
		if a.ablation.NoDistrust || !s.store.Distrusts(s.p, leader) {
			s.x = lead.V
		}
		// Line 19: send report.
		out = append(out, model.Broadcast(all, ReportPayload{K: s.k, V: s.x})...)
		s.ph = phaseReport

	case phaseReport:
		// Lines 21–24: propose v if the reports from Q_p are unanimous,
		// else "?". The proposal carries the current H_p.
		pl := ProposalPayload{K: s.k, Hist: s.store.Outgoing()}
		if v, unanimous := unanimousValue(s.reps[s.k], q, func(r ReportPayload) (int, bool) { return r.V, true }); unanimous {
			pl.V, pl.HasV = v, true
		}
		out = append(out, model.Broadcast(all, pl)...)
		s.ph = phaseProp

	case phaseProp:
		// Lines 27–28: import the proposers' histories, and only proceed
		// when no member of Q_p is distrusted.
		props := s.props[s.k]
		q.ForEach(func(r model.ProcessID) {
			s.store.Import(props[r].Hist)
		})
		distrusted := false
		if !a.ablation.NoDistrust {
			q.ForEach(func(r model.ProcessID) {
				if !distrusted && s.store.Distrusts(s.p, r) {
					distrusted = true
				}
			})
		}
		if distrusted {
			return out // stay in the loop; next step retries with a fresh quorum
		}
		// Line 29: adopt any non-? proposal from Q_p (Lemma 6.23: all such
		// proposals agree; take the smallest sender's for determinism).
		if v, any := anyValue(props, q); any {
			s.x = v
		}
		// Line 30: decide if the proposals from Q_p are unanimously v ≠ ?
		// and every member of Q_p acknowledged the SAW for Q_p in an
		// earlier round (seen_p[Q_p] < k_p).
		if _, unanimous := unanimousValue(props, q, func(r ProposalPayload) (int, bool) { return r.V, r.HasV }); unanimous {
			seen, ok := s.seen[q]
			if (a.ablation.NoSeenGate || (ok && seen < s.k)) && !s.decided {
				s.decided = true
				s.decision = s.x
				s.decidedQ, s.decidedK = q, s.k
			}
		}
		// Lines 31–33: announce the first use of Q_p for collecting
		// proposals.
		if !s.sent[q] {
			out = append(out, model.Broadcast(q, SawPayload{Q: q})...)
			s.sent[q] = true
		}
		// Back to line 13: the next round's LEAD send is straight-line
		// code and runs in this same step.
		s.startRound(all, &out)
	}
	return out
}

// wait evaluates the current phase's wait condition under d without
// changing the state: the Ω output or the Σν+ quorum it reads, and whether
// what it waits for has arrived. It is the one statement of each wait;
// advance and Blocked both read it.
//   - phaseInit waits for nothing.
//   - phaseLead, line 16: q ← Ω_p; completed if (LEAD, k_p, v, Hist_q)
//     was received from q.
//   - phaseReport, line 20: Q_p ← get_quorum(); completed if (REP, k_p, −)
//     was received from all of Q_p.
//   - phaseProp, lines 25–26: one iteration of the nested repeat, with a
//     fresh quorum; completed if (PROP, k_p, −, −) was received from all
//     of Q_p.
func (s *anucState) wait(d model.FDValue) (leader model.ProcessID, q model.ProcessSet, done bool) {
	switch s.ph {
	case phaseLead:
		var ok bool
		if leader, ok = fd.LeaderOf(d); !ok {
			panic(fmt.Sprintf("consensus: A_nuc needs an Ω component, got %v", d))
		}
		_, got := s.leads[s.k][leader]
		return leader, q, got
	case phaseReport:
		q = quorumOf(d)
		return model.NoProcess, q, receivedFromAll(s.reps[s.k], q)
	case phaseProp:
		q = quorumOf(d)
		return model.NoProcess, q, receivedFromAll(s.props[s.k], q)
	}
	return model.NoProcess, q, true
}

// Blocked reports whether a λ-step under d would leave the state unchanged
// and send nothing: the current phase's wait does not complete, and — in
// the two phases whose wait calls get_quorum — the quorum d names is
// already in H_p[p], so get_quorum's record of it changes nothing. It is
// false in phaseInit, whose first step starts round 1. False promises
// nothing: a completed wait may still change nothing (a distrusted
// proposer keeps phaseProp looping).
func (s *anucState) Blocked(d model.FDValue) bool {
	_, q, done := s.wait(d)
	if done {
		return false
	}
	return s.ph == phaseLead || s.store.Has(s.p, q)
}

// quorumOf reads the Σν+ component get_quorum() (Fig. 5 lines 47–50)
// queries.
func quorumOf(d model.FDValue) model.ProcessSet {
	q, ok := fd.QuorumOf(d)
	if !ok {
		panic(fmt.Sprintf("consensus: A_nuc needs a Σν+ component, got %v", d))
	}
	return q
}

// startRound runs lines 14–15: advance to the next round and broadcast the
// leader message. Inboxes for completed rounds are pruned.
func (s *anucState) startRound(all model.ProcessSet, out *[]model.Send) {
	s.k++
	pruneInbox(s.leads, s.k)
	pruneInbox(s.reps, s.k)
	pruneInbox(s.props, s.k)
	*out = append(*out, model.Broadcast(all, LeadPayload{K: s.k, V: s.x, Hist: s.store.Outgoing()})...)
	s.ph = phaseLead
}

func pruneInbox[P any](in map[int]map[model.ProcessID]P, k int) {
	for r := range in {
		if r < k {
			delete(in, r)
		}
	}
}

// receivedFromAll reports whether the inbox holds a message from every
// member of q.
func receivedFromAll[P any](byP map[model.ProcessID]P, q model.ProcessSet) bool {
	if q.IsEmpty() {
		return false // an empty quorum never completes a wait
	}
	ok := true
	q.ForEach(func(r model.ProcessID) {
		if _, got := byP[r]; !got {
			ok = false
		}
	})
	return ok
}

// unanimousValue reports whether every member of q sent the same value
// (per the extractor, whose second result marks "?"-proposals as absent).
func unanimousValue[P any](byP map[model.ProcessID]P, q model.ProcessSet, val func(P) (int, bool)) (int, bool) {
	v, have := 0, false
	unanimous := true
	q.ForEach(func(r model.ProcessID) {
		x, ok := val(byP[r])
		if !ok {
			unanimous = false
			return
		}
		if !have {
			v, have = x, true
		} else if x != v {
			unanimous = false
		}
	})
	return v, unanimous && have
}

// anyValue returns the non-? proposal of the smallest member of q that
// sent one.
func anyValue(byP map[model.ProcessID]ProposalPayload, q model.ProcessSet) (int, bool) {
	for _, r := range q.Slice() {
		if pl := byP[r]; pl.HasV {
			return pl.V, true
		}
	}
	return 0, false
}

// ConsideredFaulty exposes F_p (Fig. 5 line 52) for invariant checking:
// Lemma 6.20 (p ∉ F_p, by Σν+ self-inclusion) and Lemma 6.21 (for correct
// p and q, q ∉ F_p, by nonuniform intersection).
func (s *anucState) ConsideredFaulty() model.ProcessSet {
	return s.store.ConsideredFaulty(s.p)
}

// BindStore implements StoreBound.
func (s *anucState) BindStore(store HistoryStore) { s.store = store }

// SeedAcknowledged implements AwarenessSeeded: the state behaves as if it
// had sent (SAW, p, q) and every member had acknowledged before round 1.
func (s *anucState) SeedAcknowledged(q model.ProcessSet) {
	s.sent[q] = true
	s.seen[q] = 0
}

// FaultView is implemented by states exposing their considered-faulty set.
type FaultView interface {
	ConsideredFaulty() model.ProcessSet
}
