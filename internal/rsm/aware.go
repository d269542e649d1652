// Quorum awareness across slots (DESIGN.md §10). Fig. 4's line-30 gate
// seen_p[Q_p] < k_p protects one fact — every member of Q_p held (p, Q_p)
// in its history before it sent the proposal p decides on (Lemma 6.24) —
// and that fact lives in the per-process store all slot instances share,
// not in any one instance. So the log keeps one awareness record beside the
// store, and a quorum whose members acknowledged it before they opened slot
// s needs no second SAW → ACK round trip there: p's instance of s starts
// with it already seen.
package rsm

import (
	"fmt"
	"math"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// AckStampPayload is consensus.AckPayload as the log ships it: Stamp is the
// highest slot of the acker's window (slot + window − 1) at the moment it
// ran the SAW handler, so the acker's store held (p, Q) before the acker
// created any instance above Stamp — hence before any PROP it sends there.
// wrapShared stamps every outgoing ACK; applyIncoming records the stamp and
// hands the instance the plain AckPayload.
type AckStampPayload struct {
	Q     model.ProcessSet
	K     int
	Stamp int
}

// Kind implements model.Payload.
func (AckStampPayload) Kind() string { return "SACK" }

// String implements model.Payload.
func (m AckStampPayload) String() string {
	return fmt.Sprintf("SACK(%s,k=%d,stamp=%d)", m.Q, m.K, m.Stamp)
}

// Plain returns the AckPayload the inner instance is handed.
func (m AckStampPayload) Plain() consensus.AckPayload { return consensus.AckPayload{Q: m.Q, K: m.K} }

// unacked is a record entry for a member with no ACK yet: below no slot.
const unacked = math.MaxInt

// recordAck notes q's acknowledgement of this process's SAW(ack.Q): per
// quorum, per member, the smallest stamp among that member's ACKs — the
// earliest point it is known to have held (p, Q). It runs where deltas are
// applied, before the live-slot check, so an ACK for a slot that has retired
// here still counts. A new quorum's record is one records increment.
func (s *logState) recordAck(q model.ProcessID, ack AckStampPayload, records *obs.Counter) {
	row := s.aware[ack.Q]
	if row == nil {
		if s.aware == nil {
			s.aware = make(map[model.ProcessSet][]int)
		}
		row = make([]int, len(s.progress))
		for i := range row {
			row[i] = unacked
		}
		s.aware[ack.Q] = row
		records.Add(1)
	}
	if ack.Stamp < row[q] {
		row[q] = ack.Stamp
	}
}

// acknowledgedBefore is the gate on seeding: every member of q acknowledged
// with a stamp below slot, i.e. before it had an instance of slot. A member
// whose window already reached slot when it acknowledged (the pipelined
// case) may have sent that slot's PROP first, so it does not count.
func acknowledgedBefore(slot int, q model.ProcessSet, stamps []int) bool {
	return !q.IsEmpty() && lateAckers(slot, q, stamps).IsEmpty()
}

// lateAckers lists the members of q whose acknowledgement is missing or
// stamped at or above slot: the processes an unseeded open is waiting on.
func lateAckers(slot int, q model.ProcessSet, stamps []int) model.ProcessSet {
	var late model.ProcessSet
	q.ForEach(func(r model.ProcessID) {
		if stamps[r] >= slot {
			late = late.Add(r)
		}
	})
	return late
}

// awareOpen describes one instance as the gate saw it when it opened: how
// many recorded quorums it was seeded with and, if none, the recorded
// quorum that came closest with the members that held it back.
type awareOpen struct {
	slot    int
	seeded  int
	nearest model.ProcessSet // empty: nothing recorded yet
	late    model.ProcessSet
}

func (o awareOpen) String() string {
	switch {
	case o.seeded > 0:
		return fmt.Sprintf("slot %d: seeded with %d acknowledged quorums", o.slot, o.seeded)
	case o.nearest.IsEmpty():
		return fmt.Sprintf("slot %d: unseeded, no quorum acknowledged yet", o.slot)
	}
	return fmt.Sprintf("slot %d: unseeded, quorum %s not yet acknowledged by %s", o.slot, o.nearest, o.late)
}

// seedAwareness hands a just-created instance of slot every recorded quorum
// acknowledgedBefore it and reports what it did. Seeding happens here only
// — at open, never into a running instance — and a quorum without a
// complete record takes A_nuc's own per-instance SAW/ACK path.
func (s *logState) seedAwareness(slot int, inst model.State) awareOpen {
	open := awareOpen{slot: slot}
	seeder := inst.(consensus.AwarenessSeeded)
	for q, stamps := range s.aware {
		if acknowledgedBefore(slot, q, stamps) {
			seeder.SeedAcknowledged(q)
			open.seeded++
			continue
		}
		late := lateAckers(slot, q, stamps)
		if open.nearest.IsEmpty() || late.Len() < open.late.Len() ||
			(late.Len() == open.late.Len() && q < open.nearest) { // map order must not show
			open.nearest, open.late = q, late
		}
	}
	return open
}
