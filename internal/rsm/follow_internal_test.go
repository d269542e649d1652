package rsm

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// TestRoundOneLeadWaitsForFollower: p1, which has no command to forward,
// takes p2's FLW(p0) in its first step and runs slots 0 and 1. Their
// round-1 LEADs go to p0, which has announced nothing yet, and stay home
// for p2, which follows p0. Nothing else is due to p2, and p1's own FLW
// goes bare only to a leader, so p2 gets no message at all. When p2 names
// p1, both LEADs leave in one bundle, in slot order, each with its history
// frame taken at release.
func TestRoundOneLeadWaitsForFollower(t *testing.T) {
	const n = 3
	aut := NewLog([][]int{{10}, nil, {30}}, 4).WithPipeline(2)
	d := fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: model.FullSet(n)}}
	st := aut.InitState(1)

	st, out := aut.Step(1, st, &model.Message{From: 2, To: 1, Seq: 1, Payload: FollowPayload{Leader: 0}}, d)
	leads := map[model.ProcessID]int{}
	for _, snd := range Flatten(out) {
		if snd.To == 2 {
			t.Fatalf("p1 sent p2 %v, which follows p0", snd.Payload)
		}
		if sp, ok := snd.Payload.(SlotPayload); ok {
			if _, lead := sp.Inner.(consensus.LeadDeltaPayload); lead {
				leads[snd.To]++
			}
		}
	}
	if leads[0] != 2 {
		t.Fatalf("p1 sent p0 %d round-1 LEADs, want 2: %v", leads[0], out)
	}
	ls := st.(*logState)
	for slot := 0; slot < 2; slot++ {
		if r := ls.recs[slot]; r.lent != model.SetOf(2) || r.lead.K != 1 {
			t.Fatalf("slot %d holds LEAD %v for %v, want round 1 for {p2}", slot, r.lead, r.lent)
		}
	}

	st, out = aut.Step(1, st, &model.Message{From: 2, To: 1, Seq: 2, Payload: FollowPayload{Leader: 1}}, d)
	var slots []int
	for _, snd := range Flatten(out) {
		if sp, ok := snd.Payload.(SlotPayload); ok && snd.To == 2 {
			if lead, ok := sp.Inner.(consensus.LeadDeltaPayload); ok && lead.K == 1 {
				slots = append(slots, sp.Slot)
			}
		}
	}
	if len(slots) != 2 || slots[0] != 0 || slots[1] != 1 {
		t.Fatalf("released round-1 LEADs to p2 for slots %v, want [0 1]: %v", slots, out)
	}
	for slot := 0; slot < 2; slot++ {
		if r := st.(*logState).recs[slot]; !r.lent.IsEmpty() {
			t.Fatalf("slot %d still holds its LEAD for %v", slot, r.lent)
		}
	}
}
