// The slot record, the inbound gate and the quiet rule: everything the log
// knows about one slot, and the one place each kind of traffic for it is
// withheld. Delivering or sending a message later is asynchrony the model
// grants (§2.4), so nothing here bears on safety; DESIGN.md §10 has the
// liveness argument.
package rsm

import (
	"sort"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
)

// slotRec is everything one process knows about one slot. A record exists
// from the first message that names the slot — or from the window reaching
// it — until retire; inst == nil means the slot has not opened here yet.
//
// The record's two queues are the log's whole deferral machinery:
//
//   - in: messages the gate (accepts) did not hand to the instance, in
//     arrival order — which preserves per-sender FIFO — with payloads stored
//     post-delta-resolution (applyIncoming runs at arrival, so a replay
//     never re-applies a history delta). drain empties it at the two moments
//     the gate's answer flips: the instance opens, or it wakes.
//   - out: the LEAD broadcast of the round a quiet instance sits in, as
//     A_nuc emitted it — slot-tagged and delta-encoded only at release (see
//     stepInstance). It never holds anything else.
type slotRec struct {
	inst  model.State // the slot's A_nuc instance; nil until opened here
	state slotState
	v     int   // slotOpen: own proposal; slotDecided: the decision
	round int   // slotDecided: the A_nuc round this process decided in
	heard []int // heard[q]: highest round of any slot message delivered from q; nil until the first
	in    []parkedMsg
	out   []model.Send
}

type slotState uint8

const (
	slotUnopened slotState = iota // no instance yet: only deferred arrivals
	slotOpen                      // running, no decision harvested
	slotDecided                   // decision harvested; appended once the frontier reaches it
)

// parkedMsg is a message deferred on a record's in queue. A_nuc's liveness
// assumes reliable links: a process that misses, say, the stable leader's
// round-k LEAD waits for it forever — the sender transmits each phase
// message exactly once. So a message the gate does not deliver is never
// dropped: it waits, whether because the instance has not opened here yet
// (the sender is ahead) or because the instance is quiet and the sender has
// passed the slot (nobody is waiting on our reaction, but a later wake-up
// resumes A_nuc where it stopped).
type parkedMsg struct {
	from model.ProcessID
	seq  uint64
	pl   model.Payload
}

// rec returns slot's record, creating it on the slot's first mention.
func (s *logState) rec(slot int) *slotRec {
	r := s.recs[slot]
	if r == nil {
		r = &slotRec{}
		s.recs[slot] = r
	}
	return r
}

// accepts is the inbound gate: a message for a slot in [floor, slots) goes
// to the slot's instance iff there is one and it is not asleep to the
// sender — a quiet instance hears only the processes it sleeps for (see
// mayNeed). Everything else joins r.in.
func (s *logState) accepts(r *slotRec, slot int, from model.ProcessID) bool {
	return r.inst != nil && (!s.isQuiet(slot) || s.mayNeed(from, slot))
}

// deliver hands one slot message to the slot's live instance, first noting
// the sender's round in the heard row the quiet rule reads. Every message
// an instance ever receives — on arrival or drained from r.in — comes
// through here.
func (s *logState) deliver(a *Log, slot int, from model.ProcessID, seq uint64, pl model.Payload, d model.FDValue) []model.Send {
	if k, ok := consensus.PayloadRound(pl); ok {
		r := s.recs[slot]
		if r.heard == nil {
			r.heard = make([]int, len(s.progress))
		}
		if k > r.heard[from] {
			r.heard[from] = k
		}
	}
	return s.stepInstance(a, slot, &model.Message{From: from, To: s.p, Seq: seq, Payload: pl}, d)
}

// drain delivers the messages deferred for slot, in arrival order, and
// reports how many there were. It is the only reader of r.in, run when the
// instance opens (openWindow) and when it wakes (settle). The burst of
// inner steps runs under one outer step: each deferred message already paid
// for an outer step when it arrived, so the per-step send budget holds
// amortized. The queue is short either way — what faster processes sent
// between opening the slot themselves and our window reaching it, or what
// its last awake peers sent before they too went quiet: a few rounds of
// phase messages per peer.
func (s *logState) drain(a *Log, slot int, d model.FDValue) (int, []model.Send) {
	r := s.recs[slot]
	msgs := r.in
	r.in = nil
	var out []model.Send
	for _, pm := range msgs {
		out = append(out, s.deliver(a, slot, pm.from, pm.seq, pm.pl, d)...)
	}
	return len(msgs), out
}

// stepInstance advances slot's live instance by one inner step — delivering
// m, or a λ step when m is nil — and returns its sends slot-tagged, with
// history payloads delta-encoded (wrapShared, shared.go). Every inner step
// of the log goes through here.
//
// Fig. 4 falls from line 30 straight through lines 13–15: the step that
// completes a round broadcasts the next round's LEAD. When that step leaves
// the instance quiet nobody has been heard at the new round, so nobody has
// asked for that LEAD, and it is kept — as A_nuc emitted it — in r.out
// instead of returned: sending a message later is asynchrony the model
// grants. It goes through wrapShared only at release, so the
// per-destination delta chain and sentVer advance in the order messages
// really leave, and it leaves ahead of the releasing step's own sends: the
// first step after which the instance is not quiet (someone was heard at
// its round), or in which it moves on in that round regardless (the LEAD it
// waits for was in its inbox already). Heard rounds only move in deliver,
// which steps the instance straight after, so a held LEAD never outlives
// the quiet it was held under.
func (s *logState) stepInstance(a *Log, slot int, m *model.Message, d model.FDValue) []model.Send {
	r := s.recs[slot]
	ns, sends := a.inner.Step(s.p, r.inst, m, d)
	r.inst = ns
	quiet := s.quietNow(slot)
	var released []model.Send
	if r.out != nil && (!quiet || movedOn(sends)) {
		a.metrics.quietRelease(len(r.out))
		released, r.out = s.wrapShared(slot, r.out), nil
	}
	if i := newRoundLead(sends); quiet && i < len(sends) {
		r.out = sends[i:]
		a.metrics.quietHold(len(sends) - i)
		sends = sends[:i:i]
	}
	sends = s.wrapShared(slot, sends)
	if released == nil {
		return sends
	}
	return append(released, sends...)
}

// newRoundLead returns where, in one inner step's sends, the LEAD broadcast
// of a round entered in that step begins — len(sends) if it entered none.
// startRound is the last thing an A_nuc step does and the only place a LEAD
// is sent, so the broadcast is the tail of the slice.
func newRoundLead(sends []model.Send) int {
	i := len(sends)
	for i > 0 {
		if _, lead := sends[i-1].Payload.(consensus.LeadPayload); !lead {
			break
		}
		i--
	}
	return i
}

// movedOn reports whether one inner step's sends hold anything besides
// acknowledgements of a SAW: a wait of Fig. 4's main loop completed in it.
func movedOn(sends []model.Send) bool {
	for _, snd := range sends {
		if _, ack := snd.Payload.(consensus.AckPayload); !ack {
			return true
		}
	}
	return false
}

// quiet is the rule decided instances sleep by: a process's decided
// instance of slot, currently in round own, takes no steps while it is
// strictly ahead of the highest round heard, in this slot, from every other
// process not known to have passed the slot (a nil heard row, or a zero in
// it, is a process never heard from). An undecided instance is never quiet,
// and the process itself is not one it stays up for. Withholding a step is
// ordinary asynchrony, so safety does not depend on this rule; DESIGN.md
// "Quiet decided instances" has the liveness lemma.
func quiet(decided bool, own int, self model.ProcessID, slot int, progress, heard []int) bool {
	if !decided {
		return false
	}
	for q, passed := range progress {
		if model.ProcessID(q) == self || passed > slot {
			continue
		}
		h := 0
		if heard != nil {
			h = heard[q]
		}
		if own <= h {
			return false
		}
	}
	return true
}

// mayNeed reports whether q may still need this process's slot messages:
// it is another process and has not announced progress past slot. These
// are exactly the processes quiet compares rounds with, and a message from
// one of them is always delivered.
func (s *logState) mayNeed(q model.ProcessID, slot int) bool {
	return q != s.p && s.progress[q] <= slot
}

// quietNow evaluates the quiet rule for a live slot on the current state.
// It reads the decision off the instance, not the record: stepInstance asks
// in the very step that decides, before harvest has seen it.
func (s *logState) quietNow(slot int) bool {
	r := s.recs[slot]
	_, decided := model.DecisionOf(r.inst)
	own, _ := model.RoundOf(r.inst)
	return quiet(decided, own, s.p, slot, s.progress, r.heard)
}

// isQuiet reports the recorded status of a slot: decision harvested and not
// in the awake list.
func (s *logState) isQuiet(slot int) bool {
	if r := s.recs[slot]; r == nil || r.state != slotDecided {
		return false
	}
	i := sort.SearchInts(s.awake, slot)
	return i == len(s.awake) || s.awake[i] != slot
}

// setAwake inserts slot into, or removes it from, the ordered awake list.
func (s *logState) setAwake(slot int, awake bool) {
	i := sort.SearchInts(s.awake, slot)
	if awake {
		s.awake = append(s.awake, 0)
		copy(s.awake[i+1:], s.awake[i:])
		s.awake[i] = slot
	} else {
		s.awake = append(s.awake[:i], s.awake[i+1:]...)
	}
}

// settle brings a decided slot's recorded status in line with the quiet
// rule after something the rule reads moved: the instance stepped (own
// round), a delivery raised a heard round, or a process passed the slot. It
// is the only writer of that status once harvest has listed the slot.
// Falling asleep is bookkeeping; waking drains what was deferred while
// quiet, after which A_nuc steps as ever — unless the drain itself carried
// the instance a round past everyone again, which the second look records.
func (s *logState) settle(a *Log, slot int, d model.FDValue) []model.Send {
	if r := s.recs[slot]; r == nil || r.state != slotDecided {
		return nil
	}
	now := s.quietNow(slot)
	if now == s.isQuiet(slot) {
		return nil
	}
	s.setAwake(slot, !now)
	if now {
		a.metrics.quietEnter()
		return nil
	}
	n, out := s.drain(a, slot, d)
	a.metrics.quietWake(n)
	return append(out, s.settle(a, slot, d)...)
}
