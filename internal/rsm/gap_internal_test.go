package rsm

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/quorum"
)

// TestSkippedFrameCountsAGap: the wire frame of a delta carries no Base —
// the receiver rebuilds it as To − len(Adds) — so the gap check must still
// see a link that lost a non-empty frame. A sender's store issues three
// frames; the receiver applies the first, never sees the second, and the
// third's rebuilt Base lies beyond what it applied: rsm.hist.delta_gaps
// counts one, and an empty frame after it counts none.
func TestSkippedFrameCountsAGap(t *testing.T) {
	reg := obs.NewRegistry()
	aut := NewLog([][]int{{1}, {2}, {3}}, 3).WithMetrics(reg)
	st := aut.InitState(0).(*logState)
	sender := quorum.NewVersioned(3)
	// frame is what the receiver decodes: Base rebuilt from To and the adds.
	frame := func(base uint64) quorum.Delta {
		d := sender.DeltaSince(base)
		return quorum.Delta{Base: d.To - uint64(len(d.Adds)), To: d.To, Adds: d.Adds}
	}
	take := func(d quorum.Delta) {
		st.applyIncoming(1, consensus.LeadDeltaPayload{K: 1, V: 2, Delta: d}, aut.metrics)
	}
	gaps := reg.Counter("rsm.hist.delta_gaps")

	sender.Add(1, model.SetOf(0, 1))
	take(frame(0)) // version 0 → 1
	sender.Add(1, model.SetOf(1, 2))
	skipped := frame(1) // version 1 → 2, lost on the link
	if len(skipped.Adds) == 0 {
		t.Fatal("the skipped frame carries no adds: the test lost its premise")
	}
	sender.Add(2, model.SetOf(0, 2))
	if take(frame(2)); gaps.Value() != 1 {
		t.Errorf("delta_gaps = %d after a frame based on version 2 reached a receiver at version 1, want 1", gaps.Value())
	}
	if take(frame(3)); gaps.Value() != 1 {
		t.Errorf("delta_gaps = %d after an empty frame at the head, want still 1", gaps.Value())
	}
	if st.appliedVer[1] != 3 {
		t.Errorf("appliedVer[1] = %d, want 3", st.appliedVer[1])
	}
}
