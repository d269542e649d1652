package rsm

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
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

// lambdaLog is the log's A_nuc recording the slot of every λ-step (an inner
// step that delivers nothing) of st's instances, in order.
type lambdaLog struct {
	slotAutomaton
	st    *logState
	slots *[]int
}

func (w lambdaLog) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if m == nil {
		*w.slots = append(*w.slots, slotOf(w.st, s))
	}
	return w.slotAutomaton.Step(p, s, m, d)
}

// TestLambdaStepAdvancesEveryAwakeSlot: with a window of four at frontier
// 4, slot 5 decided and quiet, slot 6 decided and awake (a peer was heard
// at its round) and slots 4 and 7 open and never stepped, one λ-step of the
// log steps slots 4, 6 and 7 exactly once each, in ascending order, and
// slot 5 not at all: the window advance starts the fresh slots, and the
// start rule after it must not step them again. What they send a peer
// leaves as one send: both fresh slots' LEAD(1), ascending, in the one
// bundle for each peer. Slots 5 and 6 are driven through receive, not
// Step, because Step would start slots 4 and 7 on the way; a slot still
// fresh at a λ-step is one that loopback opened in the step before.
func TestLambdaStepAdvancesEveryAwakeSlot(t *testing.T) {
	q := model.SetOf(1, 2)
	d := fd.PairValue{First: fd.LeaderValue{Leader: 1}, Second: fd.QuorumValue{Quorum: q}}
	aut := NewLog([][]int{{}, {}, {}}, 16).WithPipeline(4)
	st := aut.InitState(0).(*logState)
	for _, r := range []model.ProcessID{1, 2} {
		st.recordAck(r, AckStampPayload{Q: q, K: 1, Stamp: 1}, nil)
	}
	forceWindowDecided(st)
	st.harvest(aut, d) // frontier 4: slots 4..7 open, seeded with q
	var seq uint64
	send := func(slot int, from model.ProcessID, pl model.Payload) {
		seq++
		st.receive(aut, from, seq, SlotPayload{Slot: slot, Inner: pl}, d)
	}
	for _, slot := range []int{5, 6} { // decide in round 1, ending in round 2
		send(slot, 1, consensus.LeadDeltaPayload{K: 1, V: 42})
		send(slot, 1, consensus.ReportPayload{K: 1, V: 42})
		send(slot, 2, consensus.ReportPayload{K: 1, V: 42})
		send(slot, 1, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true})
		send(slot, 2, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true})
	}
	send(6, 2, consensus.LeadDeltaPayload{K: 2, V: 42}) // p2 reaches slot 6's round: awake
	if st.slot != 4 || !st.isQuiet(5) || st.recs[6].state != slotDecided || st.isQuiet(6) || !atStart(st, 4) || !atStart(st, 7) {
		t.Fatalf("frontier %d, slot 5 quiet = %v, slot 6 state %v quiet = %v, slots 4 and 7 at their start = %v, %v: want frontier 4, slot 5 asleep, slot 6 decided and awake, slots 4 and 7 fresh",
			st.slot, st.isQuiet(5), st.recs[6].state, st.isQuiet(6), atStart(st, 4), atStart(st, 7))
	}

	var stepped []int
	aut.inner = lambdaLog{slotAutomaton: aut.inner, st: st, slots: &stepped}
	_, out := aut.Step(0, st, nil, d)
	if want := []int{4, 6, 7}; !reflect.DeepEqual(stepped, want) {
		t.Errorf("λ-steps in slots %v, want %v: every awake in-flight slot once, ascending, the quiet one never", stepped, want)
	}
	var to model.ProcessSet
	for _, snd := range out {
		if snd.To == st.p || to.Has(snd.To) {
			t.Fatalf("the step sent %v: want at most one send per peer and none to itself", out)
		}
		to = to.Add(snd.To)
	}
	for _, r := range []model.ProcessID{1, 2} {
		if leads, want := leadOnes(out, r), []int{4, 7}; !reflect.DeepEqual(leads, want) {
			t.Errorf("LEAD(1)s to p%d in slots %v, want %v", r, leads, want)
		}
	}
}

// atStart reports whether slot's instance has begun no round: it is at
// Fig. 4's start.
func atStart(st *logState, slot int) bool {
	k, _ := model.RoundOf(liveAt(st, slot))
	return k == 0
}

// leadOnes lists, in order, the slots whose LEAD(1) the sends carry to r.
func leadOnes(out []model.Send, r model.ProcessID) []int {
	var slots []int
	for _, snd := range Flatten(out) {
		if sp, ok := snd.Payload.(SlotPayload); ok && snd.To == r {
			if lead, ok := sp.Inner.(consensus.LeadDeltaPayload); ok && lead.K == 1 {
				slots = append(slots, sp.Slot)
			}
		}
	}
	return slots
}

// TestSlotStartsInTheStepThatOpensIt: Fig. 4's lines 13–15 wait for
// nothing, so a slot starts round 1 in the step that opens it, whatever
// that step took. At frontier 2 with a window of two, the receipt that
// starts slot 2 starts the fresh slot 3 too, and the receipt that decides
// slot 2 opens slot 4 and sends its LEAD(1) in the same step: no slot is
// left at its start for a later λ-step.
func TestSlotStartsInTheStepThatOpensIt(t *testing.T) {
	aut, st, _, d := seededSlotTwo(obs.NewRegistry())
	forceWindowDecided(st)
	st.harvest(aut, d) // frontier 2: slots 2 and 3 open, unstarted
	var seq uint64
	step := func(from model.ProcessID, pl model.Payload) []model.Send {
		seq++
		_, out := aut.Step(0, st, &model.Message{From: from, To: 0, Seq: seq, Payload: SlotPayload{Slot: 2, Inner: pl}}, d)
		return out
	}
	out := step(1, consensus.LeadDeltaPayload{K: 1, V: 42})
	for _, r := range []model.ProcessID{1, 2} {
		if got := leadOnes(out, r); !reflect.DeepEqual(got, []int{2, 3}) {
			t.Errorf("the step that starts slot 2 sent p%d LEAD(1)s in slots %v, want [2 3]", r, got)
		}
	}
	step(1, consensus.ReportPayload{K: 1, V: 42})
	step(2, consensus.ReportPayload{K: 1, V: 42})
	step(1, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true})
	out = step(2, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true}) // decides slot 2, opens slot 4
	if st.slot != 3 || atStart(st, 4) {
		t.Fatalf("after slot 2's deciding step: frontier %d, slot 4 at its start = %v; want frontier 3 and slot 4 started", st.slot, atStart(st, 4))
	}
	for _, r := range []model.ProcessID{1, 2} {
		if got := leadOnes(out, r); !reflect.DeepEqual(got, []int{4}) {
			t.Errorf("the step that opens slot 4 sent p%d LEAD(1)s in slots %v, want [4]", r, got)
		}
	}
}

// TestInitStateAllocatesNoEntries: a log state holds no entries slice
// sized for the whole log, so a log of math.MaxInt slots — the capacity
// cmd/nucd builds with — allocates no more at InitState than one of 8.
func TestInitStateAllocatesNoEntries(t *testing.T) {
	bytesPerInit := func(slots int) uint64 {
		aut := NewLog([][]int{{1}, {2}}, slots)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if st := aut.InitState(0).(*logState); cap(st.entries) != 0 {
				t.Fatalf("slots=%d: a fresh state holds an entries slice of capacity %d, want 0", slots, cap(st.entries))
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	small, huge := bytesPerInit(8), bytesPerInit(math.MaxInt)
	t.Logf("InitState allocates %d B at 8 slots, %d B at math.MaxInt", small, huge)
	if huge > small+1024 {
		t.Errorf("InitState allocates %d B at math.MaxInt slots, %d B at 8", huge, small)
	}
}
