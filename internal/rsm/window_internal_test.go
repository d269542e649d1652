package rsm

import (
	"testing"

	"nuconsensus/internal/model"
)

// decidedInstance stands in for a slot instance that has decided v.
type decidedInstance struct{ v int }

func (d decidedInstance) CloneState() model.State { return d }
func (d decidedInstance) Decision() (int, bool)   { return d.v, true }

// TestOutOfOrderDecideIsNotProposedAgain: with a window of 2, slot 1 can
// decide this process's second command while slot 0, carrying its first, is
// still running. The decided command must leave pending although it is not
// at the head; forgetCommand used to drop only the head, so once slot 0
// decided, the already-decided command moved to the head and went into
// slot 2 a second time (serve.dup_batch_frac > 0 at window 2).
func TestOutOfOrderDecideIsNotProposedAgain(t *testing.T) {
	aut := NewLog([][]int{{10, 11, 12}, {}, {}}, 8).WithPipeline(2)
	d := parkedFD()
	st := aut.InitState(0).(*logState)
	if st.recs[0].v != 10 || st.recs[1].v != 11 {
		t.Fatalf("window proposes %d, %d; want 10, 11", st.recs[0].v, st.recs[1].v)
	}

	st.recs[1].inst = decidedInstance{11}
	st.harvest(aut, d)
	if st.slot != 0 || st.recs[1].state != slotDecided {
		t.Fatalf("slot 1 should be decided out of order behind frontier 0: slot=%d state=%v", st.slot, st.recs[1].state)
	}
	if want := []int{10, 12}; len(st.pending) != 2 || st.pending[0] != want[0] || st.pending[1] != want[1] {
		t.Fatalf("pending after slot 1 decided 11 = %v, want %v", st.pending, want)
	}

	st.recs[0].inst = decidedInstance{10}
	st.harvest(aut, d)
	if st.slot != 2 {
		t.Fatalf("frontier = %d, want 2", st.slot)
	}
	if st.recs[2].v != 12 || st.recs[3].v != NoOp {
		t.Fatalf("slots 2, 3 propose %d, %d; want 12 and a no-op (11 is decided, not pending)", st.recs[2].v, st.recs[3].v)
	}
}
