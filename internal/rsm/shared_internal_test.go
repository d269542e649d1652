package rsm

import (
	"reflect"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/quorum"
)

// TestDeliveryToRetiredSlotKeepsDeltaChain: a SlotPayload for a slot that
// progress gossip already retired must not panic, and its piggybacked
// history delta must still be applied — dropping it would break
// the sender's per-link version chain for every later slot.
func TestDeliveryToRetiredSlotKeepsDeltaChain(t *testing.T) {
	aut := NewLog([][]int{{1}, {2}, {3}}, 3)
	pattern := model.PatternFromCrashes(3, nil)
	hist := PairForLog(pattern, 0, 9)

	st := aut.InitState(0).(*logState)
	// Fabricate a just-retired slot 0: this process decided it, opened slot
	// 1, and then learned every peer passed it too.
	forceWindowDecided(st)
	st.harvest(aut, nil)
	st.progress = []int{1, 1, 1}
	st.retire(aut)
	if liveAt(st, 0) != nil {
		t.Fatal("slot 0 should have retired")
	}

	d := quorum.Delta{To: 2, Adds: []quorum.DeltaEntry{
		{R: 1, Q: model.SetOf(1, 2)},
		{R: 2, Q: model.SetOf(1, 2)},
	}}
	m := &model.Message{From: 1, To: 0, Seq: 1,
		Payload: SlotPayload{Slot: 0, Inner: consensus.LeadDeltaPayload{K: 1, V: 2, Delta: d}}}
	ns, _ := aut.Step(0, st, m, hist.Output(0, 1))
	got := ns.(*logState)
	if got.appliedVer[1] != 2 {
		t.Errorf("appliedVer[1] = %d, want 2: retired-slot delta must still advance the chain", got.appliedVer[1])
	}
	// Only the delta's adds are asserted, not the store's size: the same step
	// runs slot 1's instance, and its own LEAD and REP loop back and poll a
	// quorum of p0's into the store too.
	for _, e := range d.Adds {
		if !got.store.v.Histories()[e.R].Has(e.Q) {
			t.Errorf("store lacks (p%d, %s): retired-slot delta's adds never reached the shared store", e.R, e.Q)
		}
	}
	if liveAt(got, 0) != nil || len(deferredAt(got, 0)) != 0 {
		t.Error("delivery must not resurrect a retired instance, nor defer anything for it")
	}
}

// TestDeliveryToUnknownSlotIgnored: a slot number that was never opened
// (far ahead of the current one) is ignored without panicking.
func TestDeliveryToUnknownSlotIgnored(t *testing.T) {
	pattern := model.PatternFromCrashes(3, nil)
	hist := PairForLog(pattern, 0, 9)
	aut := NewLog([][]int{{1}, {2}, {3}}, 3)
	m := &model.Message{From: 2, To: 0, Seq: 1,
		Payload: SlotPayload{Slot: 7, Inner: consensus.ReportPayload{K: 1, V: 5}}}
	ns, _ := aut.Step(0, aut.InitState(0), m, hist.Output(0, 1))
	if liveAt(ns.(*logState), 7) != nil {
		t.Error("unknown slot must not open an instance")
	}
}

// TestPumpCursorSurvivesMidCycleRetirement: the round-robin cursor over
// awake older instances must stay valid when retirement shrinks (or empties)
// the set between pump steps.
func TestPumpCursorSurvivesMidCycleRetirement(t *testing.T) {
	aut := NewLog([][]int{{1}, {2}, {3}}, 3)
	pattern := model.PatternFromCrashes(3, nil)
	hist := PairForLog(pattern, 0, 5)

	st := aut.InitState(0).(*logState)
	// Fabricate a filled log whose three instances all linger as "older"
	// (peers have not confirmed progress yet), with the cursor mid-cycle.
	for st.slot < 3 {
		forceWindowDecided(st)
		st.harvest(aut, nil)
	}
	// Both peers were heard at round 9 in every slot, far ahead of these
	// fresh instances: all three are awake and stay so while pumped.
	for slot := 0; slot < 3; slot++ {
		st.recs[slot].heard = []int{0, 9, 9}
	}
	st.awake = []int{0, 1, 2}
	st.pump = 2

	ns, _ := aut.Step(0, st, nil, hist.Output(0, 1))
	cur := ns.(*logState)
	if live := cur.liveSlots(); len(live) != 3 {
		t.Fatalf("live instances = %v, want 3", live)
	}

	// Peers announce progress 2 mid-cycle: slots 0 and 1 retire while the
	// cursor points past the shrunken list.
	for _, from := range []model.ProcessID{1, 2} {
		n, _ := aut.Step(0, cur, &model.Message{From: from, To: 0, Seq: 1, Payload: ProgressPayload{Slot: 2}}, hist.Output(0, 2))
		cur = n.(*logState)
	}
	if got := cur.awake; len(got) != 1 || got[0] != 2 {
		t.Fatalf("awake older slots after retirement = %v, want [2]", got)
	}

	// Keep pumping: the cursor must keep selecting the one surviving slot,
	// and a final retirement emptying the set must also be safe.
	for i := 0; i < 12; i++ {
		n, _ := aut.Step(0, cur, nil, hist.Output(0, model.Time(3+i)))
		cur = n.(*logState)
	}
	n, _ := aut.Step(0, cur, &model.Message{From: 1, To: 0, Seq: 2, Payload: ProgressPayload{Slot: 3}}, hist.Output(0, 20))
	cur = n.(*logState)
	n, _ = aut.Step(0, cur, &model.Message{From: 2, To: 0, Seq: 2, Payload: ProgressPayload{Slot: 3}}, hist.Output(0, 21))
	cur = n.(*logState)
	if live := cur.liveSlots(); len(live) != 0 || len(cur.recs) != 0 {
		t.Fatalf("after full retirement instances %v and %d records remain, want none", live, len(cur.recs))
	}
	for i := 0; i < 8; i++ {
		n, _ := aut.Step(0, cur, nil, hist.Output(0, model.Time(22+i)))
		cur = n.(*logState)
	}
}

// TestSharedCloneIsolation: a fork of a log state hinges on CloneState
// deep-copying the one shared store and rebinding every cloned instance to
// the copy, and on the fork owning its awake list — Step writes both in
// place. Incoming history deltas land in the store, so a state that has
// absorbed some is the sharpest one to fork. (The per-slot record's own
// pieces are TestCloneIsolatesSlotRecord's; that neither side of a fork can
// reach the other is checked for every automaton by explore's
// TestOwnershipContract; this pins the mechanism.)
func TestSharedCloneIsolation(t *testing.T) {
	pattern := model.PatternFromCrashes(3, nil)
	hist := PairForLog(pattern, 40, 7)
	aut := NewLog([][]int{{1}, {2}, {3}}, 2)
	ns := aut.InitState(0)
	for i := 1; i <= 6; i++ {
		d := quorum.Delta{Base: uint64(i - 1), To: uint64(i), Adds: []quorum.DeltaEntry{
			{R: 1, Q: model.SetOf(1, model.ProcessID(i%3))},
		}}
		m := &model.Message{From: 1, To: 0, Seq: uint64(i),
			Payload: SlotPayload{Slot: 0, Inner: consensus.LeadDeltaPayload{K: i, V: 5, Delta: d}}}
		ns, _ = aut.Step(0, ns, m, hist.Output(0, model.Time(i)))
	}
	if got := StatsOf(ns); got.StoreVersion == 0 || got.StoreBytes == 0 {
		t.Fatalf("store never absorbed the deltas: %+v", got)
	}

	orig := ns.(*logState)
	if orig.recs[0].heard[1] != 6 {
		t.Fatalf("slot 0 heard %v, want round 6 from p1", orig.recs[0].heard)
	}
	orig.awake = []int{0, 1} // as if both window slots were decided and awake
	clone := orig.CloneState().(*logState)
	if clone.store == orig.store || clone.store.v == orig.store.v {
		t.Fatal("the clone shares the original's history store")
	}
	version := orig.store.v.Version()
	clone.store.Add(2, model.SetOf(0, 2))
	if orig.store.v.Version() != version {
		t.Fatal("an entry added to the clone's store reached the original's")
	}
	clone.setAwake(0, false)
	clone.recs[0].heard[1] = 99
	if !reflect.DeepEqual(orig.awake, []int{0, 1}) || orig.recs[0].heard[1] != 6 {
		t.Fatalf("mutating the clone's quiet bookkeeping reached the original: awake=%v heard=%v", orig.awake, orig.recs[0].heard)
	}
}

// TestCloneCopiesAwarenessRecord: fork, then diverge. The awareness record
// is written in place by every stamped ACK, so a fork must own its rows: an
// acknowledgement that reaches only one side must seed only that side.
func TestCloneCopiesAwarenessRecord(t *testing.T) {
	aut := NewLog([][]int{{}, {}, {}}, 16)
	q := model.SetOf(0, 1)
	orig := aut.InitState(0).(*logState)
	orig.recordAck(0, AckStampPayload{Q: q, K: 1, Stamp: 2}, nil)

	fork := orig.CloneState().(*logState)
	fork.recordAck(1, AckStampPayload{Q: q, K: 1, Stamp: 2}, nil)
	fork.recordAck(0, AckStampPayload{Q: model.SetOf(0, 2), K: 1, Stamp: 2}, nil)

	if got := orig.aware[q]; got[1] != unacked || len(orig.aware) != 1 {
		t.Fatalf("the fork's ACKs reached the original's record: %v", orig.aware)
	}
	if acknowledgedBefore(3, q, orig.aware[q]) || !acknowledgedBefore(3, q, fork.aware[q]) {
		t.Fatalf("slot 3 must be seeded with %s at the fork only: orig %v, fork %v", q, orig.aware[q], fork.aware[q])
	}
	if open := fork.seedAwareness(3, aut.inner.InitStateProposing(0, NoOp, fork.store)); open.seeded != 1 {
		t.Errorf("fork's slot 3: %s, want one seeded quorum", open)
	}
	open := orig.seedAwareness(3, aut.inner.InitStateProposing(0, NoOp, orig.store))
	if want := "slot 3: unseeded, quorum {p0,p1} not yet acknowledged by {p1}"; open.String() != want {
		t.Errorf("original's slot 3: %q, want %q", open, want)
	}
}
