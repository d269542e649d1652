package rsm_test

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// The two quiet-gate cases the repo benchmark cannot reach (it only ever
// crashes a replica): a correct process that is merely slow, for which the
// others must really sleep and really wake, and a process that dies right
// after speaking in a slot, for which they must still fall silent.

const (
	quietN      = 4
	quietSlots  = 12
	quietStarve = 8 // slots the fast three decide before the laggard moves
	quietLag    = model.ProcessID(3)
)

func quietCmds() [][]int {
	return [][]int{{10, 11, 12}, {20, 21, 22}, {30, 31, 32}, {40, 41, 42}}
}

// threeOfFour is a stable (Ω, Σν+) history with every process correct in
// which the fast three never wait for the fourth: leader p0 everywhere,
// quorum {p0,p1,p2} at the fast three and Π at p3 (self-inclusion, and it
// meets every other quorum). The stock SigmaNuPlus history puts every
// correct process in every quorum, so a starved correct process would
// simply stall the cluster instead of falling behind it.
var threeOfFour = fd.HistoryFunc(func(p model.ProcessID, _ model.Time) model.FDValue {
	q := model.SetOf(0, 1, 2)
	if p == quietLag {
		q = model.FullSet(quietN)
	}
	return fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: q}}
})

// appendedBy reports how many entries process p's log holds.
func appendedBy(s model.State) int { return len(s.(rsm.LogHolder).Entries()) }

// starveUntil withholds every step from victim until release first holds
// (the model's asynchrony: any process may be arbitrarily slow).
type starveUntil struct {
	inner    sim.Scheduler
	victim   model.ProcessID
	release  func(*model.Configuration) bool
	released bool
}

func (s *starveUntil) Next(t model.Time, alive model.ProcessSet, c *model.Configuration) (model.ProcessID, *model.Message) {
	if !s.released {
		if s.released = s.release(c); !s.released {
			return s.inner.Next(t, alive.Remove(s.victim), c)
		}
	}
	return s.inner.Next(t, alive, c)
}

// starveFor starves victim for the scheduler's first n picks.
func starveFor(n int, victim model.ProcessID, inner sim.Scheduler) *starveUntil {
	picks := 0
	return &starveUntil{inner: inner, victim: victim, release: func(*model.Configuration) bool {
		picks++
		return picks > n
	}}
}

// assertQuietLaggardRun checks the outcome both substrates must produce:
// four identical full logs, and counters showing the fast three slept
// holding the LEAD of a round nobody had reached, and woke — LEAD out — for
// the laggard when it got there. Nothing superfluous is sent to a sleeper
// any more, so nothing need be parked at one.
func assertQuietLaggardRun(t *testing.T, states []model.State, reg *obs.Registry) {
	t.Helper()
	ref := states[0].(rsm.LogHolder).Entries()
	if len(ref) != quietSlots {
		t.Fatalf("p0 appended %d of %d slots", len(ref), quietSlots)
	}
	for p := 1; p < quietN; p++ {
		if got := states[p].(rsm.LogHolder).Entries(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("p%d's log %v differs from p0's %v", p, got, ref)
		}
	}
	for _, name := range []string{"rsm.quiet_enter", "rsm.quiet_wake", "rsm.quiet_released"} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("%s = 0: the fast processes never slept, or never woke for the laggard", name)
		}
	}
	if h, r := reg.Counter("rsm.quiet_held").Value(), reg.Counter("rsm.quiet_released").Value(); r > h {
		t.Errorf("released %d held sends but only held %d", r, h)
	}
	if p, r := reg.Counter("rsm.quiet_parked").Value(), reg.Counter("rsm.quiet_replayed").Value(); r > p {
		t.Errorf("replayed %d quiet-parked messages but only parked %d", r, p)
	}
	if gaps := reg.Counter("rsm.hist.delta_gaps").Value(); gaps != 0 {
		t.Errorf("delta_gaps = %d: a held LEAD left out of FIFO order with its link's delta chain", gaps)
	}
}

// TestQuietLaggardCatchesUp: p3 takes no step until the other three have
// appended 8 slots; their decided instances go quiet meanwhile (nothing
// was ever heard from p3), each holding the LEAD of the round after its
// decision. Once released, p3 fills its log from what was already sent to
// it plus what its own LEAD broadcasts wake the others to send.
func TestQuietLaggardCatchesUp(t *testing.T) {
	pattern := model.PatternFromCrashes(quietN, nil)
	reg := obs.NewRegistry()
	aut := rsm.NewLog(quietCmds(), quietSlots).WithPipeline(2).WithMetrics(reg)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   threeOfFour,
		Scheduler: &starveUntil{
			inner:  sim.NewFairScheduler(11, 0.8, 3),
			victim: quietLag,
			release: func(c *model.Configuration) bool {
				return appendedBy(c.States[0]) >= quietStarve && appendedBy(c.States[1]) >= quietStarve && appendedBy(c.States[2]) >= quietStarve
			},
		},
		MaxSteps: 400000,
		StopWhen: rsm.AllAppended(pattern, quietSlots),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("laggard never caught up: %s", rsm.DebugState(res.Config.States[quietLag]))
	}
	if enter := reg.Counter("rsm.quiet_enter").Value(); enter < 3*quietStarve {
		t.Errorf("quiet_enter = %d, want at least %d (three processes × %d starved slots)", enter, 3*quietStarve, quietStarve)
	}
	assertQuietLaggardRun(t, res.Config.States, reg)
	// The run is deterministic, so its deferral books are pinned to the
	// digit: a change that moves any of them changed what the log delivers,
	// defers or holds — not merely where it keeps it. (Delivering each
	// process's own messages inside its step ended the run at step 2510, not
	// 3267, with the fast three one slot short of retiring p3's last
	// progress. Sending each peer one bundle per step ends it at step 2052,
	// a schedule in which p0 and p2 have taken p3's PRGR(11) by then and
	// retired slot 10: the retired, entered and held counts are higher for
	// it, and the parked, woken and released ones did not move. Stepping
	// both in-flight slots on every λ-step ends it at step 1120, before any
	// fast process has taken PRGR(11): slot 10 retires nowhere, two fewer
	// records than before, and slots 10 and 11 are quiet at all three, two
	// more instances asleep than before, each holding a LEAD to all four.
	// Announcing progress only on traffic already going to a peer, or bare
	// once no undecided slot is in flight, ends it at step 1065, with slots
	// 10 and 11 still awake at p0 and p2: four instances fewer asleep than
	// before, each holding a LEAD to all four.)
	for name, want := range map[string]int64{
		"rsm.parked_msgs": 90, "rsm.parked_replayed": 90,
		"rsm.quiet_parked": 0, "rsm.quiet_replayed": 0,
		"rsm.quiet_enter": 116, "rsm.quiet_wake": 72, "rsm.quiet_retired": 42,
		"rsm.quiet_held": 464, "rsm.quiet_released": 288,
		"rsm.instances_opened": 48, "rsm.instances_retired": 42,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// slowStart makes one process slow on any substrate: until released its
// steps do nothing but queue what they receive; afterwards each step
// feeds the automaton the oldest queued message (per-link FIFO survives,
// one receive per step as the model demands). Holding a process's steps
// back is asynchrony, not a fault.
type slowStart struct {
	model.Automaton
	victim   model.ProcessID
	released atomic.Bool
	progress [quietN]atomic.Int64 // entries appended, per process
	queue    []*model.Message     // touched by the victim's goroutine only
}

func (a *slowStart) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if p == a.victim {
		if m != nil {
			a.queue = append(a.queue, m)
		}
		if !a.released.Load() {
			return s, nil
		}
		m = nil
		if len(a.queue) > 0 {
			m, a.queue = a.queue[0], a.queue[1:]
		}
	}
	ns, out := a.Automaton.Step(p, s, m, d)
	a.progress[p].Store(int64(appendedBy(ns)))
	if !a.released.Load() {
		fast := true
		for q := range a.progress {
			if model.ProcessID(q) != a.victim && a.progress[q].Load() < quietStarve {
				fast = false
			}
		}
		if fast {
			a.released.Store(true)
		}
	}
	return ns, out
}

// TestQuietLaggardCatchesUpAsync is the same shape on the goroutine
// substrate (run it under -race): real interleavings decide when the
// sleepers hear the laggard, and the budget is generous because the shared
// clock also ticks on idle spins.
func TestQuietLaggardCatchesUpAsync(t *testing.T) {
	sub, err := substrate.Get("async")
	if err != nil {
		t.Fatal(err)
	}
	pattern := model.PatternFromCrashes(quietN, nil)
	reg := obs.NewRegistry()
	aut := &slowStart{
		Automaton: rsm.NewLog(quietCmds(), quietSlots).WithPipeline(2).WithMetrics(reg),
		victim:    quietLag,
	}
	res, err := sub.Run(context.Background(), aut, threeOfFour, pattern, substrate.Options{
		Seed:            5,
		MaxSteps:        20_000_000,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatalf("laggard never caught up: %s", rsm.DebugState(res.Config.States[quietLag]))
	}
	assertQuietLaggardRun(t, res.Config.States, reg)
}

// sendTap notes the last step at which the log sent anything slot-tagged —
// for slot 0, where the zombie spoke, and for any slot — and whether a
// survivor was handed the zombie's one LEAD.
type sendTap struct {
	model.Automaton
	zombie              model.ProcessID
	step                int
	lastZombie, lastAny int // -1: never
	heardLead           bool
}

func (a *sendTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if m != nil && m.From == a.zombie {
		for _, item := range rsm.Flatten([]model.Send{{To: p, Payload: m.Payload}}) {
			if sp, ok := item.Payload.(rsm.SlotPayload); ok && sp.Slot == 0 && sp.Kind() == "LEADD" {
				a.heardLead = true
			}
		}
	}
	ns, out := a.Automaton.Step(p, s, m, d)
	for _, snd := range rsm.Flatten(out) {
		if sp, ok := snd.Payload.(rsm.SlotPayload); ok {
			a.lastAny = a.step
			if sp.Slot == 0 {
				a.lastZombie = a.step
			}
		}
	}
	a.step++
	return ns, out
}

// TestQuietZombieSlot: p3 takes exactly one step — it broadcasts LEAD(1)
// for slot 0 — and crashes. It will never announce progress past slot 0
// and the survivors did hear it there, so a rule that keeps a decided
// instance up for every not-passed process that ever spoke would cycle
// slot 0 forever. The round rule does not: round 1 is all the zombie will
// ever be heard at, and a decided instance is at round 2 or beyond the
// step it decides. Long after the log fills, slot 0 — and every other
// slot — is silent.
func TestQuietZombieSlot(t *testing.T) {
	const steps, tail = 40000, 10000
	// The fair scheduler steps every alive process once per pass of four:
	// crashing at time 5 gives p3 exactly its first step. A faulty process's
	// Σν+ module outputs just itself, so in a step where its Ω also names
	// itself its own LEAD, REP and PROP loop back and it decides slot 0 alone
	// (rsm loopback) — passing the slot after all. Sampler seed 2 never shows
	// p3 itself as leader before the crash.
	crashes := map[model.ProcessID]model.Time{quietLag: 5}
	pattern := model.PatternFromCrashes(quietN, crashes)
	reg := obs.NewRegistry()
	sampler := rsm.SamplerForLog(pattern, 80, 2)
	tap := &sendTap{
		Automaton: rsm.NewLog(quietCmds(), quietSlots).WithPipeline(2).WithMetrics(reg).WithSampler(sampler),
		zombie:    quietLag, lastZombie: -1, lastAny: -1,
	}
	res, err := sim.Run(sim.Exec{
		Automaton: tap,
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(3, 0.8, 3),
		MaxSteps:  steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tap.heardLead {
		t.Fatal("no survivor was handed the zombie's slot-0 LEAD: the test lost its premise")
	}
	pattern.Correct().ForEach(func(p model.ProcessID) {
		if got := appendedBy(res.Config.States[p]); got != quietSlots {
			t.Fatalf("%v appended %d of %d slots", p, got, quietSlots)
		}
	})
	if tap.lastZombie >= steps-tail {
		t.Errorf("slot 0 still sending at step %d of %d: the zombie's LEAD(1) keeps it awake", tap.lastZombie, steps)
	}
	if tap.lastAny >= steps-tail {
		t.Errorf("a decided slot still sending at step %d of %d", tap.lastAny, steps)
	}
	t.Logf("last slot-0 send at step %d, last slot send at step %d of %d", tap.lastZombie, tap.lastAny, steps)
	// Nothing retires (the zombie's progress is 0 for ever), so every
	// instance the survivors opened is still held — and every one is quiet.
	opened := reg.Counter("rsm.instances_opened").Value()
	quiet := reg.Counter("rsm.quiet_enter").Value() - reg.Counter("rsm.quiet_wake").Value()
	if retired := reg.Counter("rsm.instances_retired").Value(); retired != 0 {
		t.Errorf("%d instances retired under a stalled floor", retired)
	}
	// The zombie opened its two window slots before crashing.
	if want := opened - 2; quiet != want {
		t.Errorf("quiet instances = %d, want all %d the survivors hold", quiet, want)
	}
}

// roundTap notes, per slot, the highest round on any phase message (LEAD,
// REP, PROP) the log sent, and — as the log's RoundSink — the highest round
// any process decided the slot in.
type roundTap struct {
	model.Automaton
	sent, decided map[int]int
}

func (a *roundTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, out := a.Automaton.Step(p, s, m, d)
	for _, snd := range rsm.Flatten(out) {
		if sp, ok := snd.Payload.(rsm.SlotPayload); ok {
			// Slot-wrapped ACKs travel as AckStampPayload, which has no round
			// here: only the three phase messages count.
			if k, ok := consensus.PayloadRound(sp.Inner); ok && k > a.sent[sp.Slot] {
				a.sent[sp.Slot] = k
			}
		}
	}
	return ns, out
}

func (a *roundTap) OnEntry(model.ProcessID, int, int) {}

func (a *roundTap) OnEntryRound(_ model.ProcessID, slot, _, round int) {
	if round > a.decided[slot] {
		a.decided[slot] = round
	}
}

// TestDecidedRoundIsNotAnnounced: with nobody slow and the detectors
// settled, no process sends a phase message of a round above the one the
// slot was decided in — the LEAD Fig. 4 emits on the way out of line 30 is
// held, and with nobody to ask for it, dropped at retirement. Past the
// first windows (which pay the SAW → ACK round trip) that is one round of
// traffic per slot.
func TestDecidedRoundIsNotAnnounced(t *testing.T) {
	const slots, window = 24, 2
	pattern := model.PatternFromCrashes(quietN, nil)
	reg := obs.NewRegistry()
	tap := &roundTap{sent: map[int]int{}, decided: map[int]int{}}
	cmds := [][]int{{10, 11, 12}, {20, 21, 22}, {30, 31, 32}, {40, 41, 42}}
	tap.Automaton = rsm.NewLog(cmds, slots).WithPipeline(window).WithMetrics(reg).WithEntrySink(tap)
	res, err := sim.Run(sim.Exec{
		Automaton: tap,
		Pattern:   pattern,
		History:   rsm.PairForLog(pattern, 0, 7),
		Scheduler: sim.NewFairScheduler(7, 0.8, 3),
		MaxSteps:  200000,
		StopWhen:  rsm.AllAppended(pattern, slots),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("log never filled")
	}
	firstRound := 0
	for slot := 0; slot < slots; slot++ {
		decided := tap.decided[slot]
		if tap.sent[slot] > decided {
			t.Errorf("slot %d: decided by round %d everywhere, yet a round-%d phase message was sent", slot, decided, tap.sent[slot])
		}
		if decided == 1 {
			firstRound++
		}
	}
	if firstRound < slots-2*window {
		t.Errorf("only %d of %d slots decided in round 1 everywhere: the run is not the steady state this test is about", firstRound, slots)
	}
	held, released := reg.Counter("rsm.quiet_held").Value(), reg.Counter("rsm.quiet_released").Value()
	if want := int64(quietN * quietN * firstRound); held-released < want {
		t.Errorf("quiet_held − quiet_released = %d − %d, want at least %d (a LEAD broadcast per process per round-1 slot never sent)", held, released, want)
	}
}
