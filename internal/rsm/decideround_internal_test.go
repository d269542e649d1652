package rsm

import (
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// decideRoundTap takes the entries each step appended and checks the round
// each carries — the round every decide span carries — against the deciding
// instance itself, still live after the step that appended it, and notes
// which instances the awareness gate seeded.
type decideRoundTap struct {
	model.Automaton
	log    *Log
	t      *testing.T
	seeded map[[2]int]bool
	rounds map[[2]int]int // (p, slot) → round the entry carries
}

func (a *decideRoundTap) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, sends := a.Automaton.Step(p, s, m, d)
	a.noteOpen(p)
	for _, e := range TakeEntries(ns) {
		a.rounds[[2]int{int(p), e.Slot}] = e.Round
		inst := liveAt(ns.(*logState), e.Slot)
		if inst == nil {
			a.t.Errorf("p%d slot %d retired in the step that appended it: no instance to check its round against", p, e.Slot)
			continue
		}
		_, k, decided := inst.(interface {
			DecidedWith() (model.ProcessSet, int, bool)
		}).DecidedWith()
		if r, _ := model.DecidedRoundOf(inst); !decided || e.Round != k || e.Round != r {
			a.t.Errorf("p%d slot %d: the entry says round %d, the instance decided in round %d (DecidedRoundOf %d, decided=%v)", p, e.Slot, e.Round, k, r, decided)
		}
	}
	return ns, sends
}

// noteOpen records the awareness gate's verdict on the last instance p
// opened. It runs before every open (seedOnOpen) and after every step, so
// it sees each open.
func (a *decideRoundTap) noteOpen(p model.ProcessID) {
	if last := &a.log.metrics.awareLast[p]; last.set && last.open.seeded > 0 {
		a.seeded[[2]int{int(p), last.open.slot}] = true
	}
}

// seedOnOpen is the log's A_nuc as the tap sees it: it notes the previous
// open's verdict before every new instance is created.
type seedOnOpen struct {
	slotAutomaton
	a *decideRoundTap
}

func (w seedOnOpen) InitStateProposing(p model.ProcessID, v int, store consensus.HistoryStore) model.State {
	w.a.noteOpen(p)
	return w.slotAutomaton.InitStateProposing(p, v, store)
}

// TestDecideRoundIsTheDecidingRound: A_nuc starts round k+1 in the step that
// decides in round k, so the round a slot is appended with must come from
// the instance's record of its deciding test, not from its current round.
// Every decide span's round equals its instance's DecidedWith round, and
// with the detectors settled and nobody faulty a slot seeded with an
// acknowledged quorum decides in round 1.
func TestDecideRoundIsTheDecidingRound(t *testing.T) {
	const n, slots, window = 4, 24, 2
	pattern := model.PatternFromCrashes(n, nil)
	cmds := [][]int{{10, 11, 12}, {20, 21, 22}, {30, 31, 32}, {40, 41, 42}}
	log := NewLog(cmds, slots).WithPipeline(window).WithMetrics(obs.NewRegistry())
	tap := &decideRoundTap{Automaton: log, log: log, t: t, seeded: map[[2]int]bool{}, rounds: map[[2]int]int{}}
	log.inner = seedOnOpen{slotAutomaton: log.inner, a: tap}
	res, err := sim.Run(sim.Exec{
		Automaton: tap,
		Pattern:   pattern,
		History:   PairForLog(pattern, 0, 7),
		Scheduler: sim.NewFairScheduler(7, 0.8, 3),
		MaxSteps:  200000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("log never filled")
	}
	if len(tap.rounds) != n*slots {
		t.Fatalf("%d decide rounds for %d appended slots", len(tap.rounds), n*slots)
	}
	checked := 0
	for ps := range tap.seeded {
		round, ok := tap.rounds[ps]
		if !ok {
			continue // opened, but past the last slot appended
		}
		checked++
		if round != 1 {
			t.Errorf("p%d slot %d was seeded, yet its decide span says round %d", ps[0], ps[1], round)
		}
	}
	if checked < n*(slots-2*window) {
		t.Errorf("only %d appended slots were seeded: the run is not the steady state this test is about", checked)
	}
}
