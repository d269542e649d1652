package rsm

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// testBody is a payload owed through Log.Owe.
type testBody struct{}

func (testBody) Kind() string   { return "BODY" }
func (testBody) String() string { return "BODY" }

// TestOutboxReleaseRules: cases for every row of the outbox's table, the
// owed CMDs of NewLog's commands among them, each naming the peers one
// Step of p0 (n = 3, Ω = p2, window 1 unless a case says otherwise) sends
// the row to. The fixture's step in round 1 sends each in-flight slot's
// LEAD(1) to p2 and holds p1's, since p1 follows p2: p2 is the busy peer
// and p1 the idle one.
func TestOutboxReleaseRules(t *testing.T) {
	const n = 3
	d := fd.PairValue{First: fd.LeaderValue{Leader: 2}, Second: fd.QuorumValue{Quorum: model.FullSet(n)}}
	isCMD := func(pl model.Payload) bool { c, ok := pl.(CommandPayload); return ok && c.Cmd == 7 }
	isPRGR := func(pl model.Payload) bool { _, ok := pl.(ProgressPayload); return ok }
	isFLW := func(pl model.Payload) bool { _, ok := pl.(FollowPayload); return ok }
	isBody := func(pl model.Payload) bool { _, ok := pl.(testBody); return ok }
	leadOf := func(slot int) func(model.Payload) bool {
		return func(pl model.Payload) bool {
			sp, ok := pl.(SlotPayload)
			if !ok || sp.Slot != slot {
				return false
			}
			lead, ok := sp.Inner.(consensus.LeadDeltaPayload)
			return ok && lead.K == 1
		}
	}

	var seq uint64
	step := func(aut *Log, st *logState, from model.ProcessID, pl model.Payload) []model.Send {
		var m *model.Message
		if pl != nil {
			seq++
			m = &model.Message{From: from, To: 0, Seq: seq, Payload: pl}
		}
		_, out := aut.Step(0, st, m, d)
		return out
	}
	// fixture is p0, in a log of slots slots and the given window, with
	// slot 0 appended and the window above it open but not yet stepped:
	// PRGR(1) is due to both peers, p1 follows p2, and both peers were last
	// told leader p2. fixture() is window 1 of 8 slots.
	noCmds := [][]int{nil, nil, nil}
	fixtureOf := func(window, slots int) (*Log, *logState) {
		aut := NewLog(noCmds, slots).WithPipeline(window)
		st := aut.InitState(0).(*logState)
		st.recs[0].state, st.recs[0].v = slotDecided, NoOp
		st.harvest(aut, d)
		st.box.peer[1].follows = 2
		st.box.peer[1].toldLeader, st.box.peer[2].toldLeader = 2, 2
		return aut, st
	}
	fixture := func() (*Log, *logState) { return fixtureOf(1, 8) }

	for _, tc := range []struct {
		name string
		row  func(model.Payload) bool
		run  func() []model.Send // the setup, then the one Step under test
		want model.ProcessSet
	}{
		{"CMD: with the first step that sends, to every peer", isCMD, func() []model.Send {
			aut := NewLog([][]int{{7}, nil, nil}, 8)
			st := aut.InitState(0).(*logState)
			return step(aut, st, 0, nil) // slot 0 starts round 1: its LEADs carry the CMD
		}, model.SetOf(1, 2)},
		{"CMD: never again", isCMD, func() []model.Send {
			aut := NewLog([][]int{{7}, nil, nil}, 8)
			st := aut.InitState(0).(*logState)
			step(aut, st, 0, nil)
			return step(aut, st, 0, nil)
		}, 0},
		{"PRGR: rides to the busy peer while a slot is undecided", isPRGR, func() []model.Send {
			// The log ends at slot 2, so only slot 1 is in flight, and its
			// LEAD(1) implies no more than frontier 0.
			aut, st := fixtureOf(2, 2)
			return step(aut, st, 0, nil)
		}, model.SetOf(2)},
		{"PRGR: implied by a slot item for frontier + window − 1", isPRGR, func() []model.Send {
			aut, st := fixtureOf(2, 8)
			return step(aut, st, 0, nil) // LEAD(1) of slot 2 implies frontier 1
		}, 0},
		{"PRGR: bare to every peer once the window is idle", isPRGR, func() []model.Send {
			aut := NewLog(noCmds, 1)
			st := aut.InitState(0).(*logState)
			forceWindowDecided(st)
			st.harvest(aut, d) // the log is full: no slot in flight
			return step(aut, st, 0, nil)
		}, model.SetOf(1, 2)},
		{"FLW: rides to the busy peer", isFLW, func() []model.Send {
			aut, st := fixture()
			st.box.peer[1].toldLeader, st.box.peer[2].toldLeader = 1, 1
			return step(aut, st, 0, nil)
		}, model.SetOf(2)},
		{"FLW: bare to the new leader only, while a slot waits in round 1", isFLW, func() []model.Send {
			aut, st := fixture()
			step(aut, st, 0, nil) // slot 1 enters round 1 and waits for p2's LEAD
			st.box.peer[1].toldLeader, st.box.peer[2].toldLeader = 1, 1
			return step(aut, st, 0, nil)
		}, model.SetOf(2)},
		{"FLW: not bare to a leader never told one", isFLW, func() []model.Send {
			aut, st := fixture()
			step(aut, st, 0, nil)
			st.box.peer[1].toldLeader, st.box.peer[2].toldLeader = 1, model.NoProcess
			return step(aut, st, 0, nil)
		}, 0},
		{"LEAD: held for a follower of another process", leadOf(1), func() []model.Send {
			aut, st := fixture()
			return step(aut, st, 0, nil)
		}, model.SetOf(2)},
		{"LEAD: released when the follower names p0", leadOf(1), func() []model.Send {
			aut, st := fixture()
			step(aut, st, 0, nil)
			return step(aut, st, 1, FollowPayload{Leader: 0})
		}, model.SetOf(1)},
		{"LEAD: dropped when its slot retires first", leadOf(1), func() []model.Send {
			aut, st := fixture()
			step(aut, st, 0, nil)
			forceWindowDecided(st)
			st.harvest(aut, d) // frontier 2
			step(aut, st, 1, ProgressPayload{Slot: 2})
			step(aut, st, 2, ProgressPayload{Slot: 2}) // slot 1 retires
			if _, to := heldLeadAt(st, 1); !to.IsEmpty() {
				t.Fatalf("retired slot 1 still holds its LEAD for %v", to)
			}
			return step(aut, st, 1, FollowPayload{Leader: 0})
		}, 0},
		{"body: to every peer with a step that reaches one", isBody, func() []model.Send {
			aut, st := fixture()
			aut.Owe(st, testBody{})
			return step(aut, st, 0, nil)
		}, model.SetOf(1, 2)},
		{"body: kept by a step that sends nothing", isBody, func() []model.Send {
			aut, st := fixture()
			step(aut, st, 0, nil)
			aut.Owe(st, testBody{})
			if out := step(aut, st, 0, nil); len(out) != 0 {
				t.Fatalf("the waiting step sent %v", out)
			}
			if len(st.box.owed) != 1 {
				t.Fatalf("%d bodies owed after a silent step, want 1", len(st.box.owed))
			}
			st.box.peer[2].toldLeader = 1 // a bare FLW to p2 lets the body out
			return step(aut, st, 0, nil)
		}, model.SetOf(1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got model.ProcessSet
			for _, snd := range Flatten(tc.run()) {
				if tc.row(snd.Payload) {
					got = got.Add(snd.To)
				}
			}
			if got != tc.want {
				t.Errorf("sent to %v, want %v", got, tc.want)
			}
		})
	}
}
