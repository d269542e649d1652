package rsm

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/quorum"
)

// TestQuietPredicate pins the gate itself: a decided instance sleeps iff
// its round is strictly above everything heard, in its slot, from each
// other process not known to have passed the slot.
func TestQuietPredicate(t *testing.T) {
	const self, slot = model.ProcessID(1), 5
	cases := []struct {
		name     string
		decided  bool
		own      int
		progress []int
		heard    []int
		want     bool
	}{
		{"undecided never sleeps", false, 9, []int{6, 6, 6, 6}, nil, false},
		{"everyone else passed", true, 2, []int{6, 5, 6, 9}, []int{7, 7, 7, 7}, true},
		{"everyone else passed, not yet started", true, 0, []int{6, 5, 6, 9}, nil, true},
		{"never heard counts as round 0: nil row", true, 1, []int{0, 6, 6, 6}, nil, true},
		{"never heard counts as round 0: zero entry", true, 1, []int{0, 6, 6, 6}, []int{0, 4, 4, 4}, true},
		{"round 0 is not ahead of silence", true, 0, []int{0, 6, 6, 6}, nil, false},
		{"one round ahead", true, 4, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, true},
		{"two rounds ahead", true, 5, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, true},
		{"level with the laggard", true, 3, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, false},
		{"behind the laggard", true, 2, []int{5, 6, 6, 6}, []int{3, 0, 0, 0}, false},
		{"progress equal to the slot has not passed it", true, 3, []int{6, 6, 5, 6}, []int{0, 0, 3, 0}, false},
		{"progress one beyond the slot has", true, 3, []int{6, 6, 6, 6}, []int{0, 0, 3, 0}, true},
		{"ahead of one laggard, level with the other", true, 5, []int{2, 6, 6, 5}, []int{1, 0, 0, 5}, false},
		{"ahead of both", true, 6, []int{2, 6, 6, 5}, []int{1, 0, 0, 5}, true},
		{"own entry ignored: not passed, heard high", true, 1, []int{6, 3, 6, 6}, []int{0, 9, 0, 0}, true},
		{"a passed process's heard round is ignored", true, 1, []int{6, 6, 6, 6}, []int{9, 9, 9, 9}, true},
	}
	for _, c := range cases {
		if got := quiet(c.decided, c.own, self, slot, c.progress, c.heard); got != c.want {
			t.Errorf("%s: quiet(decided=%v, own=%d, progress=%v, heard=%v) = %v, want %v",
				c.name, c.decided, c.own, c.progress, c.heard, got, c.want)
		}
	}
}

// TestAccepts pins the inbound gate: the one place a slot message is
// dropped (the slot has retired everywhere, or lies beyond the log — and
// even then its history delta and ACK stamp are applied), delivered, or
// deferred on the record's in queue, with the counter telling the two
// reasons for deferral apart.
func TestAccepts(t *testing.T) {
	const slot = 2 // the frontier of seededSlotTwo's state once slots 0 and 1 are appended
	type verdict int
	const (
		deliver verdict = iota
		deferUnopened
		deferQuiet
		drop
	)
	type stepFn func(from model.ProcessID, pl model.Payload)
	at := func(slot int, pl model.Payload) SlotPayload { return SlotPayload{Slot: slot, Inner: pl} }
	// decide feeds slot 2 a round-1 decision on 42: p0 ends in round 2,
	// having heard p1 and p2 at round 1 only — decided, quiet, LEAD(2) held.
	decide := func(step stepFn) {
		step(1, at(slot, consensus.LeadDeltaPayload{K: 1, V: 42}))
		step(1, at(slot, consensus.ReportPayload{K: 1, V: 42}))
		step(2, at(slot, consensus.ReportPayload{K: 1, V: 42}))
		step(1, at(slot, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true}))
		step(2, at(slot, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true}))
	}
	delta := quorum.Delta{To: 5, Adds: []quorum.DeltaEntry{{R: 1, Q: model.SetOf(0, 1)}}}
	ackQ := model.SetOf(0, 2)
	cases := []struct {
		name string
		prep func(step stepFn)
		slot int
		from model.ProcessID
		pl   model.Payload
		want verdict
	}{
		{"unopened: the sender is ahead", nil, 5, 1, consensus.LeadDeltaPayload{K: 1, V: 7}, deferUnopened},
		{"open, undecided", nil, 3, 1, consensus.LeadDeltaPayload{K: 1, V: 7}, deliver},
		{"decided and awake, even from a process that has passed", func(step stepFn) {
			decide(step)
			step(2, at(slot, consensus.LeadDeltaPayload{K: 2, V: 42})) // p2 reaches p0's round: awake
			step(1, ProgressPayload{Slot: slot + 1})
		}, slot, 1, consensus.ReportPayload{K: 2, V: 42}, deliver},
		{"quiet, the sender may still need the slot", decide, slot, 2, consensus.ReportPayload{K: 2, V: 42}, deliver},
		{"quiet, the sender has passed", func(step stepFn) {
			decide(step)
			step(1, ProgressPayload{Slot: slot + 1})
		}, slot, 1, consensus.ReportPayload{K: 2, V: 42}, deferQuiet},
		{"below the floor: history delta", func(step stepFn) {
			step(1, ProgressPayload{Slot: 1})
			step(2, ProgressPayload{Slot: 1})
		}, 0, 1, consensus.LeadDeltaPayload{K: 1, V: 7, Delta: delta}, drop},
		{"below the floor: ACK stamp", func(step stepFn) {
			step(1, ProgressPayload{Slot: 1})
			step(2, ProgressPayload{Slot: 1})
		}, 0, 2, AckStampPayload{Q: ackQ, K: 1, Stamp: 0}, drop},
		{"at the log's end: history delta", nil, 8, 1, consensus.ProposalDeltaPayload{K: 1, V: 7, HasV: true, Delta: delta}, drop},
		{"past the log's end: ACK stamp", nil, 9, 2, AckStampPayload{Q: ackQ, K: 1, Stamp: 0}, drop},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			aut, st, _, d := seededSlotTwo(reg)
			forceWindowDecided(st)
			st.harvest(aut, d)
			var seq uint64
			step := func(from model.ProcessID, pl model.Payload) {
				seq++
				aut.Step(0, st, &model.Message{From: from, To: 0, Seq: seq, Payload: pl}, d)
			}
			if c.prep != nil {
				c.prep(step)
			}
			counters := func() [2]int64 {
				return [2]int64{reg.Counter("rsm.parked_msgs").Value(), reg.Counter("rsm.quiet_parked").Value()}
			}
			before, queued := counters(), len(deferredAt(st, c.slot))
			step(c.from, at(c.slot, c.pl))
			parked, quietParked := counters()[0]-before[0], counters()[1]-before[1]
			queued = len(deferredAt(st, c.slot)) - queued
			round, _ := consensus.PayloadRound(c.pl)

			switch c.want {
			case deliver:
				if queued != 0 || parked != 0 || quietParked != 0 || st.recs[c.slot].heard[c.from] != round {
					t.Errorf("not delivered: %d queued, parked_msgs +%d, quiet_parked +%d, heard %v, want p%d heard at round %d",
						queued, parked, quietParked, st.recs[c.slot].heard, c.from, round)
				}
			case deferUnopened:
				if queued != 1 || parked != 1 || quietParked != 0 || liveAt(st, c.slot) != nil {
					t.Errorf("%d queued, parked_msgs +%d, quiet_parked +%d, instance %v: want one message parked for an unopened slot",
						queued, parked, quietParked, liveAt(st, c.slot))
				}
			case deferQuiet:
				if queued != 1 || parked != 0 || quietParked != 1 || st.recs[c.slot].heard[c.from] >= round {
					t.Errorf("%d queued, parked_msgs +%d, quiet_parked +%d, heard %v: want one message parked at a quiet instance, undelivered",
						queued, parked, quietParked, st.recs[c.slot].heard)
				}
			case drop:
				if st.recs[c.slot] != nil || parked != 0 || quietParked != 0 {
					t.Errorf("record %+v, parked_msgs +%d, quiet_parked +%d: want the message dropped without a trace", st.recs[c.slot], parked, quietParked)
				}
				if _, ack := c.pl.(AckStampPayload); ack {
					if row := st.aware[ackQ]; row == nil || row[c.from] != 0 {
						t.Errorf("awareness record for %s = %v: the dropped ACK's stamp was not recorded", ackQ, row)
					}
				} else if st.appliedVer[c.from] != delta.To || !st.store.v.Histories()[1].Has(model.SetOf(0, 1)) {
					t.Errorf("appliedVer = %v: the dropped message's history delta was not applied", st.appliedVer)
				}
			}
		})
	}
}
