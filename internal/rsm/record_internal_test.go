package rsm

import (
	"reflect"
	"strings"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// The in-package tests read and fabricate per-slot state through these few
// accessors, not through the container's layout.

// liveAt returns slot's instance, nil if the slot is not open (or gone).
func liveAt(st *logState, slot int) model.State {
	if r := st.recs[slot]; r != nil {
		return r.inst
	}
	return nil
}

// deferredAt returns the messages queued inbound for slot.
func deferredAt(st *logState, slot int) []parkedMsg {
	if r := st.recs[slot]; r != nil {
		return r.in
	}
	return nil
}

// deferredSlots counts the slots with anything queued inbound.
func deferredSlots(st *logState) int {
	n := 0
	for _, r := range st.recs {
		if len(r.in) > 0 {
			n++
		}
	}
	return n
}

// holding counts the slots whose instance is holding a LEAD back.
func holding(st *logState) int {
	n := 0
	for _, r := range st.recs {
		if len(r.out) > 0 {
			n++
		}
	}
	return n
}

// heldRound is the round of the LEAD slot's instance is holding, 0 if it
// holds none.
func heldRound(st *logState, slot int) int {
	if r := st.recs[slot]; r != nil && len(r.out) > 0 {
		return r.out[0].Payload.(consensus.LeadPayload).K
	}
	return 0
}

// heldLeadAt returns the round-1 LEAD slot holds and the peers it is held
// for; an empty set if it holds none.
func heldLeadAt(st *logState, slot int) (consensus.LeadPayload, model.ProcessSet) {
	if r := st.recs[slot]; r != nil {
		return r.lead, r.lent
	}
	return consensus.LeadPayload{}, 0
}

// forceWindowDecided marks every in-flight slot as decided on a no-op — as
// if harvest had seen each instance decide — so the next harvest appends
// them all and opens the window above.
func forceWindowDecided(st *logState) {
	for slot := st.slot; slot < st.windowEnd(); slot++ {
		r := st.recs[slot]
		r.state, r.v = slotDecided, NoOp
	}
}

// TestCloneIsolatesSlotRecord: fork, then diverge. Step writes a record's
// instance, heard row and both queues in place — a release even wraps the
// held sends where they lie — and the outbox's rows likewise, so a fork
// must own its copy of each: the deltas that reach one side's store, the
// round it hears, the messages it drains, the LEAD it releases and the
// owed body, PRGR and held round-1 LEAD it sends must leave the other side
// exactly as it was. (That neither side of a fork can reach the other is checked for
// every automaton by explore's TestOwnershipContract; this pins the
// mechanism.)
func TestCloneIsolatesSlotRecord(t *testing.T) {
	const slot = 2
	aut, orig, _, d := seededSlotTwo(obs.NewRegistry())
	forceWindowDecided(orig)
	orig.harvest(aut, d) // slot 2 opens, seeded with {p1, p2}
	var seq uint64
	step := func(st *logState, from model.ProcessID, pl model.Payload) []model.Send {
		seq++
		_, out := aut.Step(0, st, &model.Message{From: from, To: 0, Seq: seq, Payload: pl}, d)
		return out
	}
	in := func(pl model.Payload) SlotPayload { return SlotPayload{Slot: slot, Inner: pl} }
	// p2 follows p1 before any slot starts: every round-1 LEAD to p2 is
	// held, slot 2's and slot 3's (both start in the first step) and slot
	// 4's (it opens and starts in slot 2's deciding step).
	orig.box.peer[2].follows = 1
	step(orig, 1, in(consensus.LeadDeltaPayload{K: 1, V: 42}))
	step(orig, 1, in(consensus.ReportPayload{K: 1, V: 42}))
	step(orig, 2, in(consensus.ReportPayload{K: 1, V: 42}))
	step(orig, 1, in(consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true}))
	step(orig, 2, in(consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true})) // decides; LEAD(2) held
	step(orig, 1, ProgressPayload{Slot: slot + 1})
	step(orig, 1, in(consensus.ReportPayload{K: 2, V: 42})) // p1 has passed: deferred
	r := orig.recs[slot]
	if heldRound(orig, slot) != 2 || len(r.in) != 1 || r.heard[2] != 1 || !orig.isQuiet(slot) {
		t.Fatalf("slot %d: held round %d, %d deferred, heard %v, quiet = %v: want quiet with LEAD(2) held, one message deferred and p2 heard at round 1",
			slot, heldRound(orig, slot), len(r.in), r.heard, orig.isQuiet(slot))
	}
	for _, s := range []int{slot, slot + 1, slot + 2} {
		if _, to := heldLeadAt(orig, s); to != model.SetOf(2) {
			t.Fatalf("slot %d holds its round-1 LEAD for %v, want {p2}", s, to)
		}
	}
	aut.Owe(orig, testBody{})
	orig.box.peer[1].told, orig.box.peer[2].told = 0, 0 // a PRGR due to both peers again
	if got := DebugState(orig); !strings.Contains(got, " deferred=1/3 ") || !strings.Contains(got, "outbox{cmds=0 held=3 owed=1}") {
		t.Fatalf("DebugState = %q, want the one message deferred inbound, the three held sends and the outbox's rows shown", got)
	}
	wantBox := orig.box.clone()
	want := *r
	want.inst = r.inst.CloneState()
	want.heard = append([]int(nil), r.heard...)
	want.in = append([]parkedMsg(nil), r.in...)
	want.out = append([]model.Send(nil), r.out...)
	sentVer := append([]uint64(nil), orig.sentVer...)

	fork := orig.CloneState().(*logState)
	fr := fork.recs[slot]
	if fr == r || fr.inst == r.inst || fork.store == orig.store || fork.store.v == orig.store.v {
		t.Fatal("the fork shares the original's record, instance or history store")
	}
	if !reflect.DeepEqual(fr.heard, r.heard) || !reflect.DeepEqual(fr.in, r.in) || !reflect.DeepEqual(fr.out, r.out) || fr.state != r.state || fr.v != r.v {
		t.Fatalf("the fork's record %+v differs from the original's %+v", *fr, *r)
	}
	fr.v, fr.round = 99, 7 // appended already: nothing reads them, but they must be the fork's own

	// The fork alone hears p2 reach round 2: it wakes, releases its LEAD(2)
	// slot-wrapped and delta-encoded, and drains the deferred REP.
	out := step(fork, 2, in(consensus.LeadDeltaPayload{K: 2, V: 42}))
	if sp, ok := Flatten(out)[0].Payload.(SlotPayload); !ok || sp.Kind() != "LEADD" {
		t.Fatalf("the fork's waking step sent %v first, want its held LEAD slot-wrapped", Flatten(out)[0].Payload)
	}
	if heldRound(fork, slot) != 0 || len(fr.in) != 0 || fr.heard[2] != 2 || fork.isQuiet(slot) {
		t.Fatalf("the fork did not wake: held round %d, %d deferred, heard %v", heldRound(fork, slot), len(fr.in), fr.heard)
	}
	// The same step lets the owed body and the PRGR out of the fork, and p2
	// naming p0 there releases the held LEAD(1)s.
	step(fork, 2, FollowPayload{Leader: 0})
	if len(fork.box.owed) != 0 || fork.box.peer[1].told != fork.slot || fork.box.peer[2].told != fork.slot || !fork.recs[slot].lent.IsEmpty() || !fork.recs[slot+1].lent.IsEmpty() || !fork.recs[slot+2].lent.IsEmpty() {
		t.Fatalf("the fork kept rows it sent: %s", DebugState(fork))
	}
	if !reflect.DeepEqual(orig.box, wantBox) {
		t.Fatalf("the fork's sends reached the original's outbox:\n got %+v\nwant %+v", orig.box, wantBox)
	}
	for _, s := range []int{slot, slot + 1, slot + 2} {
		if _, to := heldLeadAt(orig, s); to != model.SetOf(2) {
			t.Fatalf("the fork's release reached the original: slot %d holds its LEAD for %v, want {p2}", s, to)
		}
	}
	if got := *orig.recs[slot]; !reflect.DeepEqual(got, want) {
		t.Fatalf("the fork's wake reached the original's record:\n got %+v\nwant %+v", got, want)
	}
	if heldRound(orig, slot) != 2 || !orig.isQuiet(slot) || !reflect.DeepEqual(orig.sentVer, sentVer) {
		t.Fatalf("fork and original share state: orig quiet = %v, sentVer %v → %v", orig.isQuiet(slot), sentVer, orig.sentVer)
	}
	// And the other way: the original's own wake finds its queues intact.
	out = step(orig, 2, in(consensus.LeadDeltaPayload{K: 2, V: 42}))
	if sp, ok := Flatten(out)[0].Payload.(SlotPayload); !ok || sp.Kind() != "LEADD" || len(orig.recs[slot].in) != 0 {
		t.Fatalf("the original's waking step sent %v first with %d still deferred", Flatten(out)[0].Payload, len(orig.recs[slot].in))
	}
	var bodies model.ProcessSet
	for _, snd := range Flatten(out) {
		if _, ok := snd.Payload.(testBody); ok {
			bodies = bodies.Add(snd.To)
		}
	}
	if bodies != model.SetOf(1, 2) || len(orig.box.owed) != 0 {
		t.Fatalf("the original's waking step sent its owed body to %v, want {p1, p2}", bodies)
	}
}
