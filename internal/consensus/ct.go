package consensus

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// CT is the classic Chandra–Toueg rotating-coordinator consensus algorithm
// (reference [2] of the paper): uniform consensus from an eventually-strong
// suspicion detector (◇S — here driven with fd.SuspectsValue histories such
// as fd.NewSuspicion or the heartbeat suspector) in environments with a
// correct majority. It predates the quorum detectors and completes the
// repository's baseline family: majorities + Ω (MR), majorities + ◇S (CT),
// Σ quorums (MR-Σ), Σν+ quorums (A_nuc).
//
// Round r: the coordinator c = (r−1) mod n gathers a majority of timestamped
// estimates, picks the freshest, and broadcasts it; participants either
// adopt-and-ACK or, upon suspecting c, NACK and move on; a coordinator that
// gathers a majority of pure ACKs reliably broadcasts DECIDE. Locking
// estimates under majority ACKs is what makes agreement *uniform*.
type CT struct {
	proposals []int
}

// NewCT returns the Chandra–Toueg automaton for len(proposals) processes.
func NewCT(proposals []int) *CT {
	if len(proposals) < 2 || len(proposals) > model.MaxProcesses {
		panic(fmt.Sprintf("consensus: invalid system size %d", len(proposals)))
	}
	ps := make([]int, len(proposals))
	copy(ps, proposals)
	return &CT{proposals: ps}
}

// Name implements model.Automaton.
func (a *CT) Name() string { return "CT-◇S" }

// N implements model.Automaton.
func (a *CT) N() int { return len(a.proposals) }

// Coordinator returns round r's coordinator.
func (a *CT) Coordinator(r int) model.ProcessID {
	return model.ProcessID((r - 1) % a.N())
}

// ctPhase mirrors the four phases of a Chandra–Toueg round.
type ctPhase int

const (
	ctStart ctPhase = iota
	ctWaitEstimates
	ctWaitCoord
	ctWaitAcks
	ctDone // decided and relayed: the process halts
)

// EstimatePayload is the phase-1 message (ESTIMATE, r, x, ts).
type EstimatePayload struct {
	R  int
	V  int
	TS int
}

// Kind implements model.Payload.
func (EstimatePayload) Kind() string { return "EST" }

// String implements model.Payload.
func (m EstimatePayload) String() string { return fmt.Sprintf("EST(r=%d,v=%d,ts=%d)", m.R, m.V, m.TS) }

// CoordPayload is the phase-2 message (COORD, r, est).
type CoordPayload struct {
	R int
	V int
}

// Kind implements model.Payload.
func (CoordPayload) Kind() string { return "CRD" }

// String implements model.Payload.
func (m CoordPayload) String() string { return fmt.Sprintf("CRD(r=%d,v=%d)", m.R, m.V) }

// ReplyPayload is the phase-3 reply (ACK/NACK, r).
type ReplyPayload struct {
	R  int
	Ok bool
}

// Kind implements model.Payload.
func (ReplyPayload) Kind() string { return "RPL" }

// String implements model.Payload.
func (m ReplyPayload) String() string { return fmt.Sprintf("RPL(r=%d,ok=%v)", m.R, m.Ok) }

// DecidePayload is the reliably-broadcast decision.
type DecidePayload struct {
	V int
}

// Kind implements model.Payload.
func (DecidePayload) Kind() string { return "DCD" }

// String implements model.Payload.
func (m DecidePayload) String() string { return fmt.Sprintf("DCD(v=%d)", m.V) }

// ctState is one process's Chandra–Toueg state.
type ctState struct {
	p        model.ProcessID
	proposal int

	x  int // estimate
	ts int // round in which x was last locked
	r  int // current round
	ph ctPhase

	estimates map[int]map[model.ProcessID]EstimatePayload
	coords    map[int]CoordPayload
	replies   map[int][]bool

	decided  bool
	decision int
}

// CloneState implements model.State.
func (s *ctState) CloneState() model.State {
	c := *s
	c.estimates = make(map[int]map[model.ProcessID]EstimatePayload, len(s.estimates))
	for r, byP := range s.estimates {
		m := make(map[model.ProcessID]EstimatePayload, len(byP))
		for p, e := range byP {
			m[p] = e
		}
		c.estimates[r] = m
	}
	c.coords = make(map[int]CoordPayload, len(s.coords))
	for r, v := range s.coords {
		c.coords[r] = v
	}
	c.replies = make(map[int][]bool, len(s.replies))
	for r, v := range s.replies {
		c.replies[r] = append([]bool(nil), v...)
	}
	return &c
}

// Decision implements model.Decider.
func (s *ctState) Decision() (int, bool) { return s.decision, s.decided }

// Proposal implements model.Proposer.
func (s *ctState) Proposal() int { return s.proposal }

// Round implements model.Rounder.
func (s *ctState) Round() int { return s.r }

// InitState implements model.Automaton.
func (a *CT) InitState(p model.ProcessID) model.State {
	return &ctState{
		p:         p,
		proposal:  a.proposals[p],
		x:         a.proposals[p],
		estimates: make(map[int]map[model.ProcessID]EstimatePayload),
		coords:    make(map[int]CoordPayload),
		replies:   make(map[int][]bool),
	}
}

// Step implements model.Automaton.
func (a *CT) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*ctState)
	var out []model.Send
	if m != nil {
		out = append(out, st.handle(a, m)...)
	}
	if st.ph != ctDone {
		out = append(out, st.advance(a, d)...)
	}
	return st, out
}

func (s *ctState) handle(a *CT, m *model.Message) []model.Send {
	switch pl := m.Payload.(type) {
	case EstimatePayload:
		if pl.R >= s.r {
			byP := s.estimates[pl.R]
			if byP == nil {
				byP = make(map[model.ProcessID]EstimatePayload)
				s.estimates[pl.R] = byP
			}
			byP[m.From] = pl
		}
	case CoordPayload:
		if pl.R >= s.r {
			s.coords[pl.R] = pl
		}
	case ReplyPayload:
		if pl.R >= s.r {
			s.replies[pl.R] = append(s.replies[pl.R], pl.Ok)
		}
	case DecidePayload:
		if !s.decided {
			s.decided = true
			s.decision = pl.V
			s.ph = ctDone
			// Relay (reliable broadcast), then halt.
			return model.Broadcast(model.FullSet(a.N()).Remove(s.p), DecidePayload{V: pl.V})
		}
	default:
		panic(fmt.Sprintf("consensus: CT received unknown payload %T", m.Payload))
	}
	return nil
}

func (s *ctState) advance(a *CT, d model.FDValue) []model.Send {
	var out []model.Send
	switch s.ph {
	case ctStart:
		// New round: send the timestamped estimate to the coordinator.
		s.r++
		s.prune()
		coord := a.Coordinator(s.r)
		out = append(out, model.Send{To: coord, Payload: EstimatePayload{R: s.r, V: s.x, TS: s.ts}})
		if s.p == coord {
			s.ph = ctWaitEstimates
		} else {
			s.ph = ctWaitCoord
		}

	case ctWaitEstimates:
		// Phase 2 (coordinator): majority of estimates, freshest wins.
		byP := s.estimates[s.r]
		if len(byP) < majority(a.N()) {
			return out
		}
		best := EstimatePayload{TS: -1}
		for _, e := range byP {
			if e.TS > best.TS || (e.TS == best.TS && e.V < best.V) {
				best = e
			}
		}
		out = append(out, model.Broadcast(model.FullSet(a.N()).Remove(s.p), CoordPayload{R: s.r, V: best.V})...)
		// The coordinator adopts and ACKs its own proposal implicitly.
		s.x = best.V
		s.ts = s.r
		s.replies[s.r] = append(s.replies[s.r], true)
		s.ph = ctWaitAcks

	case ctWaitCoord:
		coord := a.Coordinator(s.r)
		if pl, ok := s.coords[s.r]; ok {
			s.x = pl.V
			s.ts = s.r
			out = append(out, model.Send{To: coord, Payload: ReplyPayload{R: s.r, Ok: true}})
			s.ph = ctStart
			return out
		}
		sus, ok := fd.SuspectsOf(d)
		if !ok {
			panic(fmt.Sprintf("consensus: CT needs a suspects component, got %v", d))
		}
		if sus.Has(coord) {
			out = append(out, model.Send{To: coord, Payload: ReplyPayload{R: s.r, Ok: false}})
			s.ph = ctStart
		}

	case ctWaitAcks:
		rs := s.replies[s.r]
		if len(rs) < majority(a.N()) {
			return out
		}
		allOk := true
		for _, ok := range rs[:majority(a.N())] {
			if !ok {
				allOk = false
			}
		}
		if allOk {
			// Reliable broadcast of the decision, then halt.
			s.decided = true
			s.decision = s.x
			s.ph = ctDone
			out = append(out, model.Broadcast(model.FullSet(a.N()).Remove(s.p), DecidePayload{V: s.x})...)
			return out
		}
		s.ph = ctStart
	}
	return out
}

// prune drops buffered messages for completed rounds.
func (s *ctState) prune() {
	for r := range s.estimates {
		if r < s.r {
			delete(s.estimates, r)
		}
	}
	for r := range s.coords {
		if r < s.r {
			delete(s.coords, r)
		}
	}
	for r := range s.replies {
		if r < s.r {
			delete(s.replies, r)
		}
	}
}
