package rsm

import (
	"fmt"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// parkedFD is the failure-detector value the parked-message tests step
// with: process 1 is the stable leader and the full set is the quorum.
func parkedFD() model.FDValue {
	return fd.PairValue{
		First:  fd.LeaderValue{Leader: 1},
		Second: fd.QuorumValue{Quorum: model.SetOf(0, 1, 2)},
	}
}

// leadFrom1 is a round-1 leader message for the given slot, as sent by
// process 1's instance of that slot: a delta frame with nothing new in it.
func leadFrom1(slot int) *model.Message {
	return &model.Message{From: 1, To: 0, Seq: 1,
		Payload: SlotPayload{Slot: slot, Inner: consensus.LeadDeltaPayload{K: 1, V: 42}}}
}

// reportsForSlot collects the wrapped REP payloads addressed from the
// given slot in a send batch.
func reportsForSlot(sends []model.Send, slot int) []consensus.ReportPayload {
	var out []consensus.ReportPayload
	for _, snd := range sends {
		if sp, ok := snd.Payload.(SlotPayload); ok && sp.Slot == slot {
			if rep, ok := sp.Inner.(consensus.ReportPayload); ok {
				out = append(out, rep)
			}
		}
	}
	return out
}

// TestParkedMessageReplaysOnWindowOpen: a message for an in-range slot
// whose instance has not opened yet must be parked and replayed when the
// window reaches the slot — not dropped. A_nuc sends each phase message
// exactly once, so a dropped leader LEAD wedges the late opener in
// phaseLead forever (the liveness bug cmd/nucd hit: every replica's first
// window decided no-ops before client traffic arrived, later slots opened
// at different times across replicas, and the cluster froze). Window 1
// opens slot k+1 lazily when slot k decides, so it carries the same
// park-and-replay obligation as the wider windows.
func TestParkedMessageReplaysOnWindowOpen(t *testing.T) {
	for _, window := range []int{1, 2} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			aut := NewLog([][]int{{}, {}, {}}, 8).WithPipeline(window)
			d := parkedFD()

			// The window is [0,window): the first slot beyond it has no
			// instance, so the leader's LEAD for that slot must park.
			next := window
			ns, _ := aut.Step(0, aut.InitState(0), leadFrom1(next), d)
			st := ns.(*logState)
			if got := len(deferredAt(st, next)); got != 1 {
				t.Fatalf("slot %d has %d messages deferred, want 1", next, got)
			}

			// Every window slot decides; harvest advances the frontier past
			// them, refills the window, and must replay the parked LEAD into
			// the fresh instance.
			forceWindowDecided(st)
			sends := st.harvest(aut, d)
			if st.slot != next {
				t.Fatalf("frontier = %d, want %d", st.slot, next)
			}
			if n := deferredSlots(st); n != 0 {
				t.Fatalf("%d slots still hold deferred messages after openWindow", n)
			}
			if liveAt(st, next) == nil {
				t.Fatalf("slot %d did not open", next)
			}
			gotLead := false
			for _, snd := range sends {
				if sp, ok := snd.Payload.(SlotPayload); ok && sp.Slot == next && sp.Kind() == "LEADD" {
					gotLead = true
				}
			}
			if !gotLead {
				t.Errorf("replay produced no slot-%d LEAD broadcast (fresh instance never stepped)", next)
			}

			// The replayed LEAD must be in the instance's round-1 inbox: one
			// more inner step completes the phaseLead wait on leader 1 and
			// reports the adopted estimate. Before the fix the message was
			// dropped and the instance waited here forever.
			reps := reportsForSlot(st.stepInstance(aut, next, nil, d), next)
			if len(reps) == 0 || reps[0].K != 1 || reps[0].V != 42 {
				t.Fatalf("slot-%d instance did not adopt the replayed LEAD: reports = %v", next, reps)
			}
		})
	}
}

// TestParkedSlotBounds: only slots in [current, capacity) park; messages
// for decided/retired slots and beyond-capacity slots are still dropped.
func TestParkedSlotBounds(t *testing.T) {
	aut := NewLog([][]int{{}, {}, {}}, 4).WithPipeline(2)
	d := parkedFD()

	ns, _ := aut.Step(0, aut.InitState(0), leadFrom1(7), d)
	if n := deferredSlots(ns.(*logState)); n != 0 {
		t.Errorf("beyond-capacity slot deferred: %s", DebugState(ns))
	}

	// Slots 0 and 1 decide everywhere and retire: the frontier and the floor
	// are both 2, the window is slots 2 and 3.
	st := aut.InitState(0).(*logState)
	forceWindowDecided(st)
	st.harvest(aut, d)
	st.progress = []int{2, 2, 2}
	st.retire(aut)
	if st.slot != 2 || st.floor != 2 || liveAt(st, 1) != nil {
		t.Fatalf("fabricated state is not retired through slot 1: %s", DebugState(st))
	}
	ns, _ = aut.Step(0, st, leadFrom1(1), d)
	if n := deferredSlots(ns.(*logState)); n != 0 || liveAt(st, 1) != nil {
		t.Errorf("retired slot deferred or resurrected: %s", DebugState(ns))
	}
}
