// Held LEADs: a process sends its round-1 LEAD of a slot only to the peers
// that follow it. Fig. 4, line 16, has a process wait for the LEAD of its
// own Ω output and nobody else's, so a LEAD to a peer whose Ω names another
// process is traffic that peer cannot use. Each process tells each peer its
// Ω output (FLW, announce), and a peer that has been told another leader
// gets this process's round-1 LEADs only once it names this process. A held
// LEAD is a delayed one, which asynchrony grants (§2.4), so safety is
// untouched; DESIGN.md §10 "Held LEADs" has the liveness argument.
package rsm

import "nuconsensus/internal/model"

// noLeaders is a leader row for n processes before anyone has announced:
// every entry model.NoProcess.
func noLeaders(n int) []model.ProcessID {
	row := make([]model.ProcessID, n)
	for i := range row {
		row[i] = model.NoProcess
	}
	return row
}

// lends reports whether a round-1 LEAD to peer q is held: q has announced
// a leader, and it is not this process. A peer that has announced nothing
// yet is sent everything.
func (s *logState) lends(q model.ProcessID) bool {
	return s.follows[q] != model.NoProcess && s.follows[q] != s.p
}

// release sends q every round-1 LEAD held for it, in slot order, once q
// names this process as its leader. Each gets its history delta only now,
// so the link's delta chain advances in the order messages really leave;
// the delta the LEAD would have carried when it was held has ridden the
// next PROP to q meanwhile. Records below the floor are gone, and with them
// their held LEADs: every process has passed those slots.
func (s *logState) release(a *Log, q model.ProcessID) []model.Send {
	var out []model.Send
	for slot := s.floor; slot < s.windowEnd(); slot++ {
		if r := s.recs[slot]; r != nil && r.lent.Has(q) {
			r.lent = r.lent.Remove(q)
			out = append(out, model.Send{To: q, Payload: r.lead})
			s.wrapShared(a, slot, out[len(out)-1:])
			a.metrics.leadRelease()
		}
	}
	return out
}
