package rsm

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// noSendToSelf fails the test on any send a step returns addressed to the
// process that took it: loopback delivers those inside the step.
func noSendToSelf(t *testing.T, p model.ProcessID, sends []model.Send) {
	t.Helper()
	for _, snd := range sends {
		if snd.To == p {
			t.Fatalf("p%d's step returned %v addressed to itself", p, snd.Payload)
		}
	}
}

// TestLoopbackDecidesAloneAndStops: the one case in which A_nuc completes a
// round on its own messages alone — Q_p = {p} and Ω = p — runs to a
// decision inside one outer step, and the chain of self-sends ends there:
// the decided instance is quiet, so the LEAD of the next round is held. The
// first slot pays its own SAW → ACK round trip (seen_p[{p}] < k_p needs a
// round after the ACK), so it decides in round 3; the second starts with
// {p} acknowledged and decides in round 1.
func TestLoopbackDecidesAloneAndStops(t *testing.T) {
	const p = model.ProcessID(0)
	aut := NewLog([][]int{{10, 11}, {20}, {30}}, 4)
	d := fd.PairValue{First: fd.LeaderValue{Leader: p}, Second: fd.QuorumValue{Quorum: model.SetOf(p)}}
	st := aut.InitState(p).(*logState)
	for slot, wantRound := range []int{3, 1} {
		inst := liveAt(st, slot)
		_, sends := aut.Step(p, st, nil, d)
		noSendToSelf(t, p, sends)
		q, k, decided := inst.(interface {
			DecidedWith() (model.ProcessSet, int, bool)
		}).DecidedWith()
		if !decided || q != model.SetOf(p) || k != wantRound {
			t.Fatalf("slot %d after one step: decided = %v with %s in round %d, want decided with {p0} in round %d", slot, decided, q, k, wantRound)
		}
		if st.slot != slot+1 || st.entries[slot].V != 10+slot {
			t.Fatalf("after slot %d's step the frontier is %d and the log %v: want slot %d appended with %d", slot, st.slot, st.Entries(), slot, 10+slot)
		}
		if own, _ := model.RoundOf(inst); heldRound(st, slot) != own || own != k+1 || !st.isQuiet(slot) {
			t.Fatalf("slot %d: in round %d, holding round %d, quiet = %v: want quiet in round %d with its LEAD held", slot, own, heldRound(st, slot), st.isQuiet(slot), k+1)
		}
	}
}

// TestLoopbackChainStopsAtTheWindow: under Q_p = {p} and Ω = p every slot
// decides on its own messages inside one outer step, and each decision
// opens a slot above the window. The slots opened inside loopback start
// only on the next step — the start rule runs before loopback — so one
// step decides at most a window of slots. A start at open instead (in
// openWindow) feeds each opened slot's LEAD(1) back into the same loopback,
// and one step decides the whole log.
func TestLoopbackChainStopsAtTheWindow(t *testing.T) {
	const p, window, slots = model.ProcessID(0), 2, 16
	aut := NewLog([][]int{{}, {}, {}}, slots).WithPipeline(window)
	d := fd.PairValue{First: fd.LeaderValue{Leader: p}, Second: fd.QuorumValue{Quorum: model.SetOf(p)}}
	st := aut.InitState(p).(*logState)
	decided := func() int {
		n := st.slot
		for slot := st.slot; slot < st.windowEnd(); slot++ {
			if st.recs[slot].state == slotDecided {
				n++
			}
		}
		return n
	}
	for step := 1; st.slot < slots; step++ {
		if step > slots {
			t.Fatalf("%d steps decided %d of %d slots: the chain stalls", step-1, decided(), slots)
		}
		before := decided()
		_, sends := aut.Step(p, st, nil, d)
		noSendToSelf(t, p, sends)
		if n := decided() - before; n > window {
			t.Fatalf("step %d decided %d slots, more than the window of %d: the self-message chain ran on into slots it opened", step, n, window)
		}
	}
}

// TestLoopbackDefersLikeAPeer: a message a process sends itself passes the
// same gate as a peer's. For a slot not open here it is parked on the
// record's in queue and delivered when the window opens the slot; for a
// quiet slot — which never stays up for the process itself — it is parked
// there too and delivered when the instance wakes. Neither is dropped.
func TestLoopbackDefersLikeAPeer(t *testing.T) {
	t.Run("unopened", func(t *testing.T) {
		const slot = 3
		reg := obs.NewRegistry()
		aut, st, _, d := seededSlotTwo(reg)
		out, _ := st.receive(aut, st.p, 0, SlotPayload{Slot: slot, Inner: consensus.ReportPayload{K: 1, V: 7}}, d)
		if len(out) != 0 || liveAt(st, slot) != nil {
			t.Fatalf("receive sent %v, instance %v: want nothing sent and slot %d still unopened", out, liveAt(st, slot), slot)
		}
		if in := deferredAt(st, slot); len(in) != 1 || in[0].from != st.p || reg.Counter("rsm.parked_msgs").Value() != 1 {
			t.Fatalf("slot %d defers %v (parked_msgs %d): want p0's own REP parked", slot, in, reg.Counter("rsm.parked_msgs").Value())
		}
		for st.windowEnd() <= slot {
			forceWindowDecided(st)
			st.harvest(aut, d)
		}
		if len(deferredAt(st, slot)) != 0 || st.recs[slot].heard[st.p] != 1 || reg.Counter("rsm.parked_replayed").Value() != 1 {
			t.Fatalf("slot %d opened with %d still deferred and heard %v: want p0's REP(1) drained into it", slot, len(deferredAt(st, slot)), st.recs[slot].heard)
		}
	})
	t.Run("quiet", func(t *testing.T) {
		const slot = 2
		st, q, step := quietWithLeadWaiting(t)
		// The SAW's step moves the quiet instance on to the REP of round 2:
		// its own LEAD(2) and REP(2) loop back and are deferred.
		noSendToSelf(t, st.p, step(2, consensus.SawPayload{Q: q}))
		in := deferredAt(st, slot)
		if len(in) != 2 || in[0].from != st.p || in[1].from != st.p || st.recs[slot].heard[st.p] != 1 {
			t.Fatalf("quiet slot %d defers %v, heard %v: want p0's own LEAD(2) and REP(2) parked, undelivered", slot, in, st.recs[slot].heard)
		}
		// p2 reaches round 2: the instance wakes and drains them.
		noSendToSelf(t, st.p, step(2, consensus.LeadDeltaPayload{K: 2, V: 42}))
		if len(deferredAt(st, slot)) != 0 || st.recs[slot].heard[st.p] != 2 || st.isQuiet(slot) {
			t.Fatalf("after the wake slot %d defers %d, heard %v, quiet = %v: want p0's own messages delivered", slot, len(deferredAt(st, slot)), st.recs[slot].heard, st.isQuiet(slot))
		}
	})
}

// selfSendTap fails its test on any step that returns a send to the
// process that took it.
type selfSendTap struct {
	model.Automaton
	t *testing.T
}

func (a selfSendTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	noSendToSelf(a.t, p, sends)
	return ns, sends
}

// TestNoSendToSelf: across whole runs shaped like the repo benchmark's sim
// workloads — n = 4, pipeline 2, detectors settling at tick 60, fault-free
// and with p0 crashing mid-run — no step returns a send addressed to
// itself.
func TestNoSendToSelf(t *testing.T) {
	const n, slots = 4, 48
	for name, crashes := range map[string]map[model.ProcessID]model.Time{"steady": nil, "crash": {0: 750}} {
		t.Run(name, func(t *testing.T) {
			pattern := model.PatternFromCrashes(n, crashes)
			cmds := make([][]int, n)
			for p := range cmds {
				for c := 0; c < 12; c++ {
					cmds[p] = append(cmds[p], 100*p+c)
				}
			}
			sampler := SamplerForLog(pattern, 60, 7)
			res, err := sim.Run(sim.Exec{
				Automaton: selfSendTap{NewLog(cmds, slots).WithSampler(sampler).WithPipeline(2), t},
				Pattern:   pattern,
				History:   sampler,
				Scheduler: sim.NewFairScheduler(7, 0.8, 3),
				MaxSteps:  400000,
				StopWhen:  substrate.AllCorrectDecided(pattern),
			})
			if err != nil || !res.Stopped {
				t.Fatalf("err = %v, filled = %v", err, res != nil && res.Stopped)
			}
			// Nothing is shipped to a process itself, so its own sentVer entry
			// stays 0 — and must not pin its store's compaction floor there.
			pattern.Correct().ForEach(func(p model.ProcessID) {
				st := res.Config.States[p].(*logState)
				if st.sentVer[p] != 0 || st.store.v.Floor() == 0 {
					t.Errorf("p%d: sentVer %v, store compacted through version %d: want its own entry 0 and the floor above it", p, st.sentVer, st.store.v.Floor())
				}
			})
		})
	}
}
