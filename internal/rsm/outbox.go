// The outbox: everything a process sends a peer besides what its slot
// instances emit, and when it leaves. A row is a payload and its release
// rule (DESIGN.md §10 "Outbox"):
//
//	row            enters                      rides traffic to q   leaves to q without other traffic
//	PRGR(f)        f > told[q]                 yes                  once no undecided in-flight slot is left
//	FLW(Ω_p)       Ω_p ≠ toldLeader[q]         yes                  only to the new leader, last told another, while a slot waits in round 1
//	round-1 LEAD   wrapShared, q follows       —                    when q names p, in slot order; dropped when its slot retires
//	               another process
//	owed (Owe)     the caller owes it; a CMD   in the first step that sends anything: to every peer, all or none
//	               per command NewLog was given
//
// Sending later is asynchrony the model grants (§2.4; Lynch–Sastry's send
// actions may be delayed arbitrarily, PAPERS.md), so no row bears on
// safety: a late PRGR or FLW delays what a peer knows but never falsifies
// it. A round-1 LEAD is held because Fig. 4, line 16, has a process wait
// for the LEAD of its own Ω output and nobody else's: a peer whose Ω names
// another process cannot use it until it names this one.
package rsm

import (
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// outbox is one process's rows that go to every peer, and per peer what
// the per-peer rules read. The held round-1 LEADs stay in their slot's
// record (slotRec.lent, lead), so they retire with it.
type outbox struct {
	owed []model.Payload // owed items, in the order they were owed
	peer []peerRows      // indexed by peer
}

// peerRows is what the outbox knows of one peer q.
type peerRows struct {
	told       int             // the frontier last told q
	toldLeader model.ProcessID // the Ω output last told q; NoProcess before the first
	follows    model.ProcessID // the Ω output q last named here; NoProcess before the first
}

func newOutbox(n int) outbox {
	o := outbox{peer: make([]peerRows, n)}
	for q := range o.peer {
		o.peer[q] = peerRows{toldLeader: model.NoProcess, follows: model.NoProcess}
	}
	return o
}

// clone is the outbox of a fork: no row is shared.
func (o *outbox) clone() outbox {
	return outbox{
		owed: append([]model.Payload(nil), o.owed...),
		peer: append([]peerRows(nil), o.peer...),
	}
}

// lends reports whether a round-1 LEAD to peer q is held: q has named a
// leader, and it is not this process. A peer that has named nobody yet is
// sent everything.
func (s *logState) lends(q model.ProcessID) bool {
	f := s.box.peer[q].follows
	return f != model.NoProcess && f != s.p
}

// flush is the one place a step's sends become what leaves: out is what
// the step's instances sent — self-sends already delivered (loopback),
// LEADs released to a peer that named this process in it (release) among
// them — and flush adds the rows their rules release now and packs the
// lot, one message per peer. Per peer PRGR, FLW and the owed items trail
// the instances' sends, in that order. A peer that is sent anything gets
// its PRGR and FLW too; one reached by owed items alone gets neither
// (DESIGN.md §10 "Outbox" has the counts behind that choice).
func (s *logState) flush(a *Log, out []model.Send, d model.FDValue) []model.Send {
	o := &s.box
	var busy model.ProcessSet
	for _, snd := range out {
		busy = busy.Add(snd.To)
	}
	bare, waiting := s.inFlight()
	leader, _ := fd.LeaderOf(d) // model.NoProcess when d has no Ω
	for q := range o.peer {
		to, r := model.ProcessID(q), &o.peer[q]
		if to == s.p {
			continue
		}
		prgr, flw, alone := s.peerRule(to, leader, bare, waiting)
		carried := busy.Has(to)
		if !carried && !alone {
			continue
		}
		busy = busy.Add(to)
		if prgr {
			r.told = s.slot
			out = append(out, model.Send{To: to, Payload: ProgressPayload{Slot: s.slot}})
			a.metrics.sent(rowPRGR, 1, carried || flw)
		}
		if flw {
			r.toldLeader = leader
			out = append(out, model.Send{To: to, Payload: FollowPayload{Leader: leader}})
			a.metrics.sent(rowFLW, 1, carried || prgr)
		}
	}

	// All or none: a peer learns an owed ID only from its body or from a
	// value this process sent after owing it, so the step that first lets
	// anything out sends every body to every peer, and a slot that decides
	// the ID finds its body on the way to every correct process even if
	// this one crashes right after. Until then nobody waits for it.
	if len(o.owed) > 0 && len(out) > 0 {
		for q := range o.peer {
			to := model.ProcessID(q)
			if to == s.p {
				continue
			}
			for _, b := range o.owed {
				out = append(out, model.Send{To: to, Payload: b})
			}
			a.metrics.sent(rowOwed, len(o.owed), busy.Has(to))
		}
		o.owed = nil
	}
	return pack(out)
}

// inFlight reads what the per-peer rule needs off the window: bare when no
// undecided in-flight slot is left, waiting when one is in round 1.
func (s *logState) inFlight() (bare, waiting bool) {
	bare = true
	for slot := s.slot; slot < s.windowEnd(); slot++ {
		if r := s.recs[slot]; r != nil && r.state == slotOpen {
			bare = false
			if k, _ := model.RoundOf(r.inst); k <= 1 {
				waiting = true
			}
		}
	}
	return bare, waiting
}

// peerRule is the outbox's per-peer rule for PRGR and FLW, under Ω output
// leader and the window's bare and waiting (inFlight): which of the two are
// due to q, and whether they leave even when nothing else goes to q this
// step. flush sends by it, and Log.Idle asks it whether a step that sends
// nothing else would send them.
func (s *logState) peerRule(q, leader model.ProcessID, bare, waiting bool) (prgr, flw, alone bool) {
	r := &s.box.peer[q]
	prgr = r.told < s.slot
	flw = leader != model.NoProcess && r.toldLeader != leader
	alone = prgr && bare || flw && q == leader && r.toldLeader != model.NoProcess && waiting
	return prgr, flw, alone
}

// release returns every round-1 LEAD held for q, in slot order, once q
// names this process: Step calls it where it takes that FLW, so the LEADs
// leave at the FLW's place in what the step sends q. Each is delta-encoded
// only now, so the link's delta chain runs in the order messages leave;
// the delta it would have carried when it was held has ridden the next
// LEADD or PROPD to q meanwhile. The records below the floor are gone, and
// their held LEADs with them: every process has passed those slots.
func (s *logState) release(a *Log, q model.ProcessID) []model.Send {
	var out []model.Send
	for slot := s.floor; slot < s.windowEnd(); slot++ {
		if r := s.recs[slot]; r != nil && r.lent.Has(q) {
			r.lent = r.lent.Remove(q)
			out = append(out, s.wrapShared(a, slot, []model.Send{{To: q, Payload: r.lead}})...)
			a.metrics.leadReleased.Add(1)
		}
	}
	return out
}

// Owe queues payload for every peer of the process whose log state s is:
// it leaves with that process's first step that sends anything, to every
// peer at once (flush). Like Inject it consumes s and returns it (s
// itself, mutated). The serving layer owes each batch body it injects
// this way: the body is the forward of its batch's ID.
func (a *Log) Owe(s model.State, payload model.Payload) model.State {
	st := s.(*logState)
	st.box.owed = append(st.box.owed, payload)
	return st
}
