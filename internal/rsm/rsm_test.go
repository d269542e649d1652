package rsm_test

import (
	"context"
	"strings"
	"testing"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/model"
	"nuconsensus/internal/netrun"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// runLog drives a replicated log to completion and returns each process's
// final entries.
func runLog(t *testing.T, cmds [][]int, slots int, crashes map[model.ProcessID]model.Time, seed int64) ([][]int, bool) {
	t.Helper()
	n := len(cmds)
	pattern := model.PatternFromCrashes(n, crashes)
	aut := rsm.NewLog(cmds, slots)
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   rsm.PairForLog(pattern, 80, seed),
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  120000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]int, n)
	for i, s := range res.Config.States {
		if lh, ok := s.(rsm.LogHolder); ok {
			logs[i] = lh.Entries()
		}
	}
	return logs, res.Stopped
}

// TestReplicatedLogAgreement: correct processes end with identical logs,
// and every non-noop entry was somebody's command.
func TestReplicatedLogAgreement(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cmds := [][]int{{10, 11}, {20}, {30, 31}, {40}}
		crashes := map[model.ProcessID]model.Time{3: 60}
		logs, done := runLog(t, cmds, 4, crashes, seed)
		if !done {
			t.Fatalf("seed=%d: log never filled", seed)
		}
		pattern := model.PatternFromCrashes(4, crashes)
		var ref []int
		pattern.Correct().ForEach(func(p model.ProcessID) {
			if ref == nil {
				ref = logs[p]
				return
			}
			if len(logs[p]) != len(ref) {
				t.Fatalf("seed=%d: %v has %d entries, want %d", seed, p, len(logs[p]), len(ref))
			}
			for i := range ref {
				if logs[p][i] != ref[i] {
					t.Fatalf("seed=%d: logs diverge at slot %d: %v vs %v", seed, i, logs[p], ref)
				}
			}
		})
		// Validity: every entry is a proposed command or a no-op.
		valid := map[int]bool{rsm.NoOp: true}
		for _, qs := range cmds {
			for _, c := range qs {
				valid[c] = true
			}
		}
		for _, v := range ref {
			if !valid[v] {
				t.Fatalf("seed=%d: log contains unproposed command %d", seed, v)
			}
		}
		t.Logf("seed=%d: log %v", seed, ref)
	}
}

// TestReplicatedLogDrainsCommands: in a failure-free run with enough slots,
// every process gets all its commands appended (each slot decides some
// pending command, and processes retry until theirs lands).
func TestReplicatedLogDrainsCommands(t *testing.T) {
	cmds := [][]int{{1}, {2}, {3}}
	logs, done := runLog(t, cmds, 6, nil, 2)
	if !done {
		t.Fatal("log never filled")
	}
	appended := map[int]bool{}
	for _, v := range logs[0] {
		appended[v] = true
	}
	for p, qs := range cmds {
		for _, c := range qs {
			if !appended[c] {
				t.Errorf("p%d's command %d never appended in %v", p, c, logs[0])
			}
		}
	}
}

func TestNewLogValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("too small", func() { rsm.NewLog([][]int{{1}}, 1) })
	mustPanic("zero slots", func() { rsm.NewLog([][]int{{1}, {2}}, 0) })
}

// TestReplicatedLogOverTCP runs the full SMR stack over real sockets, once
// per seed: each seed is a different pre-stabilization detector history
// and a different socket interleaving. The history deltas ride real TCP
// links here, so the chain must hold: deltas applied, none out of order.
func TestReplicatedLogOverTCP(t *testing.T) {
	cmds := [][]int{{7}, {8}, {9}}
	const slots = 3
	pattern := model.PatternFromCrashes(3, nil)
	for seed := int64(4); seed <= 9; seed++ {
		// The tick budget is shared across goroutines, so a spinning process
		// burns it on behalf of a socket-delayed laggard — be generous.
		reg := obs.NewRegistry()
		res, err := netrun.New().Run(context.Background(), rsm.NewLog(cmds, slots).WithMetrics(reg), rsm.PairForLog(pattern, 100, seed), pattern, substrate.Options{
			Seed:            seed,
			MaxSteps:        3_000_000,
			StopWhenDecided: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatalf("seed=%d: TCP log never filled (%d ticks)", seed, res.Ticks)
		}
		var ref []int
		for p := 0; p < 3; p++ {
			entries := res.Config.States[p].(rsm.LogHolder).Entries()
			if ref == nil {
				ref = entries
			} else if len(entries) != len(ref) {
				t.Fatalf("seed=%d: log lengths diverge: %v vs %v", seed, entries, ref)
			} else {
				for i := range ref {
					if entries[i] != ref[i] {
						t.Fatalf("seed=%d: logs diverge: %v vs %v", seed, entries, ref)
					}
				}
			}
		}
		if gaps := reg.Counter("rsm.hist.delta_gaps").Value(); gaps != 0 {
			t.Errorf("seed=%d: delta_gaps = %d over TCP, want 0 (per-link FIFO)", seed, gaps)
		}
		if hits := reg.Counter("rsm.hist.delta_hits").Value(); hits == 0 {
			t.Errorf("seed=%d: delta_hits = 0 over TCP: no history delta was ever applied", seed)
		}
		t.Logf("seed=%d: TCP replicated log: %v (%d wire bytes)", seed, ref, res.BytesSent)
	}
}

func TestDebugStateRenders(t *testing.T) {
	aut := rsm.NewLog([][]int{{1}, {2}}, 2)
	s := aut.InitState(0)
	if got := rsm.DebugState(s); got[:5] != "slot=" || !strings.Contains(got, " deferred=0/0 ") {
		t.Errorf("DebugState = %q, want slot=… with nothing deferred", got)
	}
	// A message for a slot this process has not opened is withheld from the
	// instance-to-be, and the rendering says so.
	hist := rsm.PairForLog(model.PatternFromCrashes(2, nil), 0, 1)
	s, _ = aut.Step(0, s, &model.Message{From: 1, To: 0, Seq: 1,
		Payload: rsm.SlotPayload{Slot: 1, Inner: consensus.ReportPayload{K: 1, V: 2}}}, hist.Output(0, 1))
	if got := rsm.DebugState(s); !strings.Contains(got, " live=[0] ") || !strings.Contains(got, " deferred=1/0 ") {
		t.Errorf("DebugState = %q, want slot 0 live and one message deferred inbound", got)
	}
	if got := rsm.DebugState(nonLogState{}); got == "" {
		t.Error("DebugState must render foreign states too")
	}
}

type nonLogState struct{}

func (nonLogState) CloneState() model.State { return nonLogState{} }
