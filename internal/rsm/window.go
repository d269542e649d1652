// The window of in-flight slots: opening instances, harvesting decisions,
// appending at the frontier, the proposal pools, and retirement.
package rsm

import (
	"sort"

	"nuconsensus/internal/model"
)

// windowEnd is one past the last in-flight slot: the window is
// [slot, windowEnd()), and between steps every slot in [floor, windowEnd())
// has a live instance — openWindow fills the top as harvest moves the
// frontier, and retire only removes from the bottom.
func (s *logState) windowEnd() int { return min(s.slot+s.window, s.slots) }

// appendEntry commits the decided value of the frontier slot: into the
// retained entries slice, or out through the sink in sink mode. round is
// the A_nuc round this process decided the slot in, forwarded to RoundSink
// implementors.
func (s *logState) appendEntry(a *Log, v, round int) {
	if a.sink != nil {
		// RoundSink first: a tracing sink emits the slot's decide span
		// before OnEntry triggers the applies that causally follow it.
		if rs, ok := a.sink.(RoundSink); ok {
			rs.OnEntryRound(s.p, s.slot, v, round)
		}
		a.sink.OnEntry(s.p, s.slot, v)
	} else {
		s.entries = append(s.entries, v)
	}
	s.appended++
}

// harvest collects decisions from every in-flight slot (they can land out
// of order), appends the contiguous prefix at the frontier, and refills the
// window with fresh instances; announce tells the peers at the end of the
// step. A decided value leaves the proposal pools immediately — before it
// is appended — so the window never proposes it a second time.
func (s *logState) harvest(a *Log, d model.FDValue) []model.Send {
	var out []model.Send
	for slot := s.slot; slot < s.windowEnd(); slot++ {
		r := s.recs[slot]
		if r.state != slotOpen {
			continue
		}
		if v, ok := model.DecisionOf(r.inst); ok {
			round, _ := model.DecidedRoundOf(r.inst)
			r.state, r.v, r.round = slotDecided, v, round
			s.forgetCommand(v)
			// Up to here the instance was undecided, hence awake: list it so,
			// and let settle put it to sleep if the rule already says quiet.
			s.setAwake(slot, true)
			out = append(out, s.settle(a, slot, d)...)
		}
	}
	for r := s.recs[s.slot]; r != nil && r.state == slotDecided; r = s.recs[s.slot] {
		s.appendEntry(a, r.v, r.round)
		s.slot++
		s.progress[s.p] = s.slot
		s.retire(a)
	}
	out = append(out, s.openWindow(a, d)...)
	return out
}

// openWindow opens an instance for every in-flight slot that lacks one,
// assigning each a proposal no other open slot is already carrying, and
// drains any messages that arrived for those slots before they opened.
func (s *logState) openWindow(a *Log, d model.FDValue) []model.Send {
	var out []model.Send
	for slot := s.slot; slot < s.windowEnd(); slot++ {
		r := s.rec(slot)
		if r.inst != nil {
			continue
		}
		v := s.nextFreeProposal()
		r.state, r.v = slotOpen, v
		r.inst = a.inner.InitStateProposing(s.p, v, s.store)
		a.metrics.opened(s.p, s.seedAwareness(slot, r.inst))
		n, sends := s.drain(a, slot, d)
		a.metrics.replayed(n)
		out = append(out, sends...)
	}
	return out
}

// announce tells each peer the frontier once it has moved past what that
// peer was last told: as one more item of what this step already sends it,
// which Pack bundles, or bare once no undecided in-flight slot is left to
// broadcast a carrier later (DESIGN.md §10 "Progress rides"). A peer's
// progress row stays a lower bound on this process's frontier either way.
func (s *logState) announce(a *Log, out []model.Send) []model.Send {
	var busy model.ProcessSet
	for _, snd := range out {
		busy = busy.Add(snd.To)
	}
	bare := true // no undecided in-flight slot
	for slot := s.slot; slot < s.windowEnd(); slot++ {
		if r := s.recs[slot]; r != nil && r.state == slotOpen {
			bare = false
		}
	}
	for q, told := range s.told {
		to := model.ProcessID(q)
		if to == s.p || told >= s.slot || !(bare || busy.Has(to)) {
			continue
		}
		s.told[q] = s.slot
		out = append(out, model.Send{To: to, Payload: ProgressPayload{Slot: s.slot}})
		a.metrics.progress(busy.Has(to))
	}
	return out
}

// nextFreeProposal returns the first pending-then-known command not
// already proposed in an open in-flight slot, or NoOp.
func (s *logState) nextFreeProposal() int {
	if c, ok := s.firstFree(s.pending); ok {
		return c
	}
	if c, ok := s.firstFree(s.known); ok {
		return c
	}
	return NoOp
}

// firstFree returns the first of cmds no open in-flight slot proposes.
func (s *logState) firstFree(cmds []int) (int, bool) {
	for _, c := range cmds {
		if !s.inWindow(slotOpen, c) {
			return c, true
		}
	}
	return 0, false
}

// inWindow reports whether some in-flight slot in the given state carries
// c: as my live proposal (slotOpen) or as a decision not yet appended
// (slotDecided).
func (s *logState) inWindow(state slotState, c int) bool {
	for slot := s.slot; slot < s.windowEnd(); slot++ {
		if r := s.recs[slot]; r != nil && r.state == state && r.v == c {
			return true
		}
	}
	return false
}

// learnCommand records a forwarded command unless it is already appended,
// pending, known, or decided-in-flight. (In sink mode the entries scan is
// vacuous: a late re-learn of an appended command costs one duplicate
// slot, which the serving layer's session dedup absorbs.)
func (s *logState) learnCommand(c int) {
	if c == NoOp || s.inWindow(slotDecided, c) {
		return
	}
	for _, v := range s.entries {
		if v == c {
			return
		}
	}
	for _, v := range s.pending {
		if v == c {
			return
		}
	}
	for _, v := range s.known {
		if v == c {
			return
		}
	}
	s.known = append(s.known, c)
}

// forgetCommand drops a decided command from the pending and known pools,
// wherever it sits: with a window above 1 slots decide out of order, so the
// value is not always at the head of pending.
func (s *logState) forgetCommand(v int) {
	s.pending = without(s.pending, v)
	s.known = without(s.known, v)
}

// without returns cmds less its first occurrence of v, never writing to
// cmds' backing array.
func without(cmds []int, v int) []int {
	for i, c := range cmds {
		if c == v {
			return append(cmds[:i:i], cmds[i+1:]...)
		}
	}
	return cmds
}

// retire discards the records below everyone's known progress: every
// process has decided those slots, so nobody can still need their messages.
// Whatever the record still defers — in either direction — and its awake
// entry go with it. Instances only ever open at or above the frontier, so
// the slots to drop are exactly [floor, min), each with a live instance:
// the work is O(retired), not O(live), however long a crash has stalled the
// floor.
func (s *logState) retire(a *Log) {
	min := s.progress[0]
	for _, pr := range s.progress[1:] {
		if pr < min {
			min = pr
		}
	}
	retired := 0
	for ; s.floor < min; s.floor++ {
		delete(s.recs, s.floor)
		retired++
	}
	k := sort.SearchInts(s.awake, min)
	s.awake = append(s.awake[:0], s.awake[k:]...)
	a.metrics.retired(retired, retired-k)
}

// liveSlots lists every live instance in increasing order, for DebugState.
func (s *logState) liveSlots() []int {
	var out []int
	for slot := s.floor; slot < s.windowEnd(); slot++ {
		if r := s.recs[slot]; r != nil && r.inst != nil {
			out = append(out, slot)
		}
	}
	return out
}
