package rsm

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// fifoNet steps log states by hand over one FIFO inbox per process (so
// every link is FIFO), for tests that must look at one particular step.
type fifoNet struct {
	aut   *Log
	hist  model.History
	st    []model.State
	inbox [][]*model.Message
	t     model.Time
	seq   uint64
}

func newFifoNet(aut *Log, hist model.History) *fifoNet {
	net := &fifoNet{aut: aut, hist: hist, inbox: make([][]*model.Message, aut.N())}
	for p := 0; p < aut.N(); p++ {
		net.st = append(net.st, aut.InitState(model.ProcessID(p)))
	}
	return net
}

// step gives p one step — receiving the head of its inbox, if any — routes
// what it sends, and returns those sends.
func (net *fifoNet) step(p model.ProcessID) []model.Send {
	var m *model.Message
	if q := net.inbox[p]; len(q) > 0 {
		m, net.inbox[p] = q[0], q[1:]
	}
	net.t++
	ns, out := net.aut.Step(p, net.st[p], m, net.hist.Output(p, net.t))
	net.st[p] = ns
	for _, snd := range out {
		net.seq++
		net.inbox[snd.To] = append(net.inbox[snd.To], &model.Message{From: p, To: snd.To, Seq: net.seq, Payload: snd.Payload})
	}
	return out
}

func (net *fifoNet) log(p model.ProcessID) *logState { return net.st[p].(*logState) }

// TestHeldLeadReleasedOnWake: the fast three of four fill the log while p3
// takes no step, and fall silent — every instance quiet, each holding the
// LEAD of the round after its decision. Then p3 runs. Its SAW is
// acknowledged from under the hold; the step that hands the stable leader
// p0 p3's LEADs of held rounds — one bundle, for every slot p3's λ-step
// advanced — sends p0's own held LEADs of those slots first, in ascending
// slot order, the first delta-encoded against what each link has been
// shipped by then (not by the time A_nuc emitted it), and the laggard
// catches up over an unbroken delta chain.
func TestHeldLeadReleasedOnWake(t *testing.T) {
	const n, slots, lag = 4, 6, model.ProcessID(3)
	hist := fd.HistoryFunc(func(p model.ProcessID, _ model.Time) model.FDValue {
		q := model.SetOf(0, 1, 2)
		if p == lag {
			q = model.FullSet(n) // self-inclusion; meets every other quorum
		}
		return fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: q}}
	})
	reg := obs.NewRegistry()
	net := newFifoNet(NewLog([][]int{{10, 11}, {20}, {30}, {40}}, slots).WithPipeline(2).WithMetrics(reg), hist)

	silent := func() bool {
		for p := 0; p < n-1; p++ {
			if len(net.inbox[p]) > 0 || net.log(model.ProcessID(p)).slot < slots {
				return false
			}
		}
		return true
	}
	for i := 0; !silent(); i++ {
		if i > 20000 {
			t.Fatalf("the fast three never filled the log and fell silent: %s", DebugState(net.st[0]))
		}
		net.step(model.ProcessID(i % (n - 1)))
	}
	p0 := net.log(0)
	if len(p0.awake) != 0 || holding(p0) != slots {
		t.Fatalf("p0 silent with awake = %v and %d held LEADs, want every one of %d instances quiet and holding", p0.awake, holding(p0), slots)
	}
	if reg.Counter("rsm.quiet_released").Value() != 0 {
		t.Fatal("a held LEAD was released with nobody behind heard from")
	}

	// p3 runs alone on what was sent to it until p0 is about to be handed
	// its LEAD of a round p0 holds the LEAD of — in one slot, or in several:
	// p3 steps each of its in-flight slots on a λ-step, and their LEADs
	// travel in one bundle.
	held := map[int]int{} // slot → round of the LEAD p0 holds and is about to be handed
	for i := 0; ; i++ {
		if i > 20000 {
			t.Fatalf("p3 never reached a round p0 holds: %s", DebugState(net.st[lag]))
		}
		if q := net.inbox[0]; len(q) > 0 {
			sawSlot := -1
			for _, item := range Flatten([]model.Send{{To: 0, Payload: q[0].Payload}}) {
				sp, _ := item.Payload.(SlotPayload) // CMD and PRGR fall through to a plain step
				switch inner := sp.Inner.(type) {
				case consensus.LeadDeltaPayload:
					if k := heldRound(p0, sp.Slot); k != 0 && inner.K == k {
						held[sp.Slot] = k
					}
				case consensus.SawPayload:
					sawSlot = sp.Slot
				}
			}
			if len(held) > 0 {
				break
			}
			if sawSlot >= 0 {
				out := net.step(0)
				if len(out) != 1 || out[0].To != lag || heldRound(p0, sawSlot) == 0 {
					t.Fatalf("p0 answered p3's SAW with %v and holds round %d: want the one ACK and the LEAD still held", out, heldRound(p0, sawSlot))
				}
				continue
			}
			net.step(0)
			continue
		}
		net.step(lag)
	}

	// p0's own copy of each held LEAD is delivered inside the step
	// (loopback), so the copy to each of its peers of the first one released
	// leads what the step sends that peer, and the released LEADs follow each
	// other in ascending slot order — the order p3's bundle woke them in.
	sentVer := append([]uint64(nil), p0.sentVer...)
	out := net.step(0)
	sent := map[model.ProcessID][]SlotPayload{}
	for _, snd := range Flatten(out) {
		sp, _ := snd.Payload.(SlotPayload)
		sent[snd.To] = append(sent[snd.To], sp)
	}
	if len(sent) != n-1 {
		t.Fatalf("waking step sent to %d peers, want the held LEADs to all %d of p0's", len(sent), n-1)
	}
	for to := model.ProcessID(1); to < n; to++ {
		var released []int
		for _, sp := range sent[to] {
			if lead, ok := sp.Inner.(consensus.LeadDeltaPayload); ok && held[sp.Slot] == lead.K {
				released = append(released, sp.Slot)
			}
		}
		if len(released) != len(held) || !sort.IntsAreSorted(released) {
			t.Errorf("the waking step released slots %v to p%d, want each of the %d woken once, ascending", released, to, len(held))
		}
		first := sent[to][0]
		lead, ok := first.Inner.(consensus.LeadDeltaPayload)
		if !ok || held[first.Slot] != lead.K {
			t.Fatalf("the waking step's first send to p%d is %v, want the held LEAD of a slot that woke (%v)", to, first, held)
		}
		if lead.Delta.Base != sentVer[to] || lead.Delta.To != p0.store.v.Version() {
			t.Errorf("released LEAD to p%d carries delta %d→%d, want %d→%d (the link's version at release)",
				to, lead.Delta.Base, lead.Delta.To, sentVer[to], p0.store.v.Version())
		}
	}
	for slot := range held {
		if heldRound(p0, slot) != 0 || p0.isQuiet(slot) {
			t.Errorf("after the wake p0's slot %d holds round %d, quiet = %v: want released and awake", slot, heldRound(p0, slot), p0.isQuiet(slot))
		}
	}
	if got, want := reg.Counter("rsm.quiet_released").Value(), int64(n*len(held)); got != want {
		t.Errorf("quiet_released = %d after %d releases, want %d", got, len(held), want)
	}

	for i := 0; net.log(lag).slot < slots; i++ {
		if i > 200000 {
			t.Fatalf("laggard never caught up: %s", DebugState(net.st[lag]))
		}
		net.step(model.ProcessID(i % n))
	}
	if got, want := net.log(lag).Entries(), p0.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("p3's log %v differs from p0's %v", got, want)
	}
	if gaps := reg.Counter("rsm.hist.delta_gaps").Value(); gaps != 0 {
		t.Errorf("delta_gaps = %d, want 0: a released LEAD broke its link's chain", gaps)
	}
	if h, r := reg.Counter("rsm.quiet_held").Value(), reg.Counter("rsm.quiet_released").Value(); r > h {
		t.Errorf("released %d held sends but only held %d", r, h)
	}
}

// seededSlotTwo is the hand-built fixture of the two tests below: p0 of
// three, window [0, 1], stepping with leader p1 and quorum {p1, p2} — a
// quorum without p0 itself, which Σν+ never outputs, so that p0's instance
// can complete a round on what others sent alone — and that quorum already
// acknowledged below slot 2, so slot 2 opens seeded and decides in round 1.
func seededSlotTwo(reg *obs.Registry) (*Log, *logState, model.ProcessSet, model.FDValue) {
	q := model.SetOf(1, 2)
	d := fd.PairValue{First: fd.LeaderValue{Leader: 1}, Second: fd.QuorumValue{Quorum: q}}
	aut := NewLog([][]int{{}, {}, {}}, 8).WithPipeline(2).WithMetrics(reg)
	st := aut.InitState(0).(*logState)
	for _, r := range []model.ProcessID{1, 2} {
		st.recordAck(r, AckStampPayload{Q: q, K: 1, Stamp: 1}, nil)
	}
	return aut, st, q, d
}

// TestHeldLeadReleasedInsideReplay: an instance that decides inside
// replayParked — harvest has not seen the decision, so the window still
// says open and settle will not look at it — holds its next LEAD like any
// other, and a later message of that same replay, from a peer already at
// the held round, must release it there and then: nothing else would. The
// next harvest then appends the slot and lists its instance awake.
func TestHeldLeadReleasedInsideReplay(t *testing.T) {
	const n, slot = 3, 2
	reg := obs.NewRegistry()
	aut, st, _, d := seededSlotTwo(reg)
	parked := []struct {
		from model.ProcessID
		pl   model.Payload
	}{
		{1, consensus.LeadDeltaPayload{K: 1, V: 42}},
		{1, consensus.ReportPayload{K: 1, V: 42}},
		{2, consensus.ReportPayload{K: 1, V: 42}},
		{1, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true}},
		{2, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true}}, // decides; LEAD(2) held
		{2, consensus.LeadDeltaPayload{K: 2, V: 42}},                 // p2 is at round 2 already
	}
	var ns model.State = st
	for i, pm := range parked {
		ns, _ = aut.Step(0, ns, &model.Message{From: pm.from, To: 0, Seq: uint64(i + 1), Payload: SlotPayload{Slot: slot, Inner: pm.pl}}, d)
	}
	if got := len(deferredAt(st, slot)); got != len(parked) {
		t.Fatalf("slot %d has %d messages deferred, want %d", slot, got, len(parked))
	}

	// Slots 0 and 1 decide; harvest opens slot 2 and replays the lot.
	forceWindowDecided(st)
	sends := st.harvest(aut, d)
	if v, ok := model.DecisionOf(liveAt(st, slot)); !ok || v != 42 {
		t.Fatalf("slot %d did not decide 42 inside the replay: %v, %v", slot, v, ok)
	}
	if st.slot != slot || st.recs[slot].state != slotOpen {
		t.Fatalf("frontier %d, state of slot %d = %v: the decision was harvested, the test lost its premise", st.slot, slot, st.recs[slot].state)
	}
	leads := 0
	for _, snd := range sends {
		if sp, ok := snd.Payload.(SlotPayload); ok && sp.Slot == slot && strings.HasPrefix(sp.Kind(), "LEAD") {
			if k, _ := consensus.PayloadRound(sp.Inner); k == 2 {
				leads++ // delta-encoded to the peers, plain to p0 itself
			}
		}
	}
	if leads != n || holding(st) != 0 {
		t.Fatalf("replay sent %d LEAD(2) and left round %d held: want the held broadcast of %d released when p2 was heard at round 2", leads, heldRound(st, slot), n)
	}
	if h, r := reg.Counter("rsm.quiet_held").Value(), reg.Counter("rsm.quiet_released").Value(); h != n || r != n {
		t.Errorf("quiet_held = %d, quiet_released = %d, want %d and %d", h, r, n, n)
	}
	st.harvest(aut, d)
	if st.slot != slot+1 || !reflect.DeepEqual(st.awake, []int{slot}) {
		t.Errorf("after the next harvest the frontier is %d and awake = %v: want slot %d appended and awake", st.slot, st.awake, slot)
	}
}

// quietWithLeadWaiting is the fixture of the test below and of
// TestLoopbackDefersLikeAPeer: p0's instance of slot 2 (seededSlotTwo) has
// decided in round 1 and sits quiet in round 2 holding its LEAD(2), and its
// leader p1 — which has since passed the slot — sent LEAD(2) before the
// decision. step hands p0 one slot-2 message from a peer and returns what
// p0 sends.
func quietWithLeadWaiting(t *testing.T) (st *logState, q model.ProcessSet, step func(from model.ProcessID, pl model.Payload) []model.Send) {
	t.Helper()
	const slot = 2
	aut, st, q, d := seededSlotTwo(obs.NewRegistry())
	forceWindowDecided(st)
	st.harvest(aut, d) // slot 2 opens, seeded with q
	var seq uint64
	send := func(from model.ProcessID, pl model.Payload) []model.Send {
		seq++
		_, out := aut.Step(0, st, &model.Message{From: from, To: 0, Seq: seq, Payload: pl}, d)
		return out
	}
	step = func(from model.ProcessID, pl model.Payload) []model.Send {
		return send(from, SlotPayload{Slot: slot, Inner: pl})
	}
	step(1, consensus.LeadDeltaPayload{K: 1, V: 42})
	step(1, consensus.ReportPayload{K: 1, V: 42})
	step(2, consensus.ReportPayload{K: 1, V: 42})
	step(1, consensus.LeadDeltaPayload{K: 2, V: 42}) // the leader runs ahead …
	send(1, ProgressPayload{Slot: slot + 1})         // … and passes the slot
	step(1, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true})
	step(2, consensus.ProposalDeltaPayload{K: 1, V: 42, HasV: true})
	if heldRound(st, slot) != 2 || !st.isQuiet(slot) {
		t.Fatalf("slot %d holds round %d, quiet = %v: want decided in round 1, quiet, LEAD(2) held", slot, heldRound(st, slot), st.isQuiet(slot))
	}
	return st, q, step
}

// TestHeldLeadReleasedWhenRoundMovesOn: the hold is for a LEAD of the round
// the instance is waiting in. If the instance completes that wait while
// still quiet — its leader, since passed, had sent the round's LEAD before
// the decision — the held LEAD goes out ahead of the REP, so a quiet
// instance never holds anything but the LEAD of its current round.
func TestHeldLeadReleasedWhenRoundMovesOn(t *testing.T) {
	const slot = 2
	st, q, step := quietWithLeadWaiting(t)

	// p2, still in round 1, announces its quorum: the step acknowledges, and
	// its advance finds the leader's LEAD(2) waiting. p0's own copies of the
	// LEAD and the REP loop back inside the step (loopback), where the quiet
	// gate defers them: only p0's peers are sent anything, each in the order
	// the step emitted it.
	out := step(2, consensus.SawPayload{Q: q})
	kinds := map[model.ProcessID][]string{}
	for _, snd := range Flatten(out) {
		if sp, ok := snd.Payload.(SlotPayload); ok && sp.Slot == slot {
			kinds[snd.To] = append(kinds[snd.To], sp.Kind())
		}
	}
	if want := map[model.ProcessID][]string{1: {"LEADD", "REP"}, 2: {"LEADD", "SACK", "REP"}}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("slot-%d sends of the step per peer = %v, want %v", slot, kinds, want)
	}
	if heldRound(st, slot) != 0 || !st.isQuiet(slot) {
		t.Errorf("slot %d holds round %d, quiet = %v: want nothing held and still quiet (p2 was only heard at round 1)", slot, heldRound(st, slot), st.isQuiet(slot))
	}
}
