package rsm

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// TestIdleSeesHeldLead: Idle reads stepInstance's release rule. A LEAD held
// in r.out on a slot the window advance steps leaves with the next λ-step,
// so that process is not idle. The log holds one only on a quiet slot,
// which the advance skips, so the state is forged from an idle one.
func TestIdleSeesHeldLead(t *testing.T) {
	a := NewLog([][]int{{1}, {2}, {3}}, 4)
	d := fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: model.FullSet(3)}}
	st, _ := a.Step(1, a.InitState(1), nil, d) // round 1 starts; p1 waits for p0's LEAD
	if !a.Idle(1, st, d) {
		t.Fatalf("p1 waits for p0's round-1 LEAD, yet is not idle: %s", DebugState(st))
	}
	st.(*logState).recs[0].out = []model.Send{{To: 2, Payload: consensus.LeadPayload{K: 1, V: 2}}}
	if a.Idle(1, st, d) {
		t.Fatal("slot 0 holds a LEAD that its next λ-step releases, yet p1 is idle")
	}
	if _, sends := a.Step(1, st, nil, d); len(sends) == 0 {
		t.Fatal("the λ-step released nothing: the forged state does not test the rule")
	}
}
