package rsm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// taker drives a log the way the serving layer does: after every step it
// takes what the step appended (rsm.TakeEntries) and keeps it per process,
// in the order taken.
type taker struct {
	model.Automaton
	entries map[model.ProcessID][]rsm.Entry
}

func newTaker() *taker { return &taker{entries: map[model.ProcessID][]rsm.Entry{}} }

func (a *taker) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, out := a.Automaton.Step(p, s, m, d)
	a.entries[p] = append(a.entries[p], rsm.TakeEntries(ns)...)
	return ns, out
}

// runPipelined drives a pipelined log to completion, through tk if it is
// not nil.
func runPipelined(t *testing.T, cmds [][]int, slots, depth int, crashes map[model.ProcessID]model.Time, seed int64, tk *taker) ([][]int, bool, int) {
	t.Helper()
	n := len(cmds)
	pattern := model.PatternFromCrashes(n, crashes)
	sampler := rsm.SamplerForLog(pattern, 80, seed)
	var aut model.Automaton = rsm.NewLog(cmds, slots).WithSampler(sampler).WithPipeline(depth)
	if tk != nil {
		tk.Automaton = aut
		aut = tk
	}
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   sampler,
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  200000,
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
	return logs, res.Stopped, res.Steps
}

// TestMeteringDoesNotSteer: whether a log is metered is not an input of
// its steps. One seeded run of the same pipelined log with one replica
// crashed, with and without WithMetrics, appends the same entries at every
// process in the same number of steps and sends the same messages, while
// the metered run's registry did count.
func TestMeteringDoesNotSteer(t *testing.T) {
	const slots, seed = 12, 5
	cmds := [][]int{{10, 11, 12}, {20, 21}, {30, 31}, {40}}
	pattern := model.PatternFromCrashes(len(cmds), map[model.ProcessID]model.Time{3: 60})
	reg := obs.NewRegistry()
	run := func(metered bool) ([][]int, *substrate.Result) {
		sampler := rsm.SamplerForLog(pattern, 80, seed)
		aut := rsm.NewLog(cmds, slots).WithPipeline(2).WithSampler(sampler)
		if metered {
			aut = aut.WithMetrics(reg)
		}
		res, err := sim.Run(sim.Exec{
			Automaton: aut,
			Pattern:   pattern,
			History:   sampler,
			Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
			MaxSteps:  200000,
			StopWhen:  substrate.AllCorrectDecided(pattern),
		})
		if err != nil || !res.Stopped {
			t.Fatalf("err=%v filled=%v", err, res != nil && res.Stopped)
		}
		logs := make([][]int, len(cmds))
		for i, s := range res.Config.States {
			logs[i] = s.(rsm.LogHolder).Entries()
		}
		return logs, res
	}
	plainLogs, plain := run(false)
	meteredLogs, metered := run(true)
	if !reflect.DeepEqual(plainLogs, meteredLogs) {
		t.Errorf("entries differ:\n unmetered %v\n metered   %v", plainLogs, meteredLogs)
	}
	if plain.Steps != metered.Steps || plain.MessagesSent != metered.MessagesSent || !reflect.DeepEqual(plain.SentKinds, metered.SentKinds) {
		t.Errorf("unmetered run took %d steps and sent %v, metered %d and %v",
			plain.Steps, plain.SentKinds, metered.Steps, metered.SentKinds)
	}
	if reg.Counter("rsm.instances_opened").Value() == 0 || reg.Counter("rsm.progress_carried").Value() == 0 {
		t.Error("the metered run counted nothing")
	}
}

// TestPipelinedAgreement: with k slots in flight, correct logs still agree
// slot-for-slot, every entry is someone's command or a no-op, and no
// command is decided into two different slots more often than the window
// permits — table-driven across depths and adversarial seeds (short
// stabilization keeps the pre-GST failure-detector noise in play).
func TestPipelinedAgreement(t *testing.T) {
	cases := []struct {
		name    string
		depth   int
		crashes map[model.ProcessID]model.Time
	}{
		{"depth2-shared", 2, map[model.ProcessID]model.Time{3: 60}},
		{"depth4-shared", 4, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cmds := [][]int{{10, 11, 12}, {20, 21}, {30, 31}, {40}}
				const slots = 8
				logs, done, _ := runPipelined(t, cmds, slots, tc.depth, tc.crashes, seed, nil)
				if !done {
					t.Fatalf("seed=%d: log never filled", seed)
				}
				pattern := model.PatternFromCrashes(4, tc.crashes)
				var ref []int
				pattern.Correct().ForEach(func(p model.ProcessID) {
					if ref == nil {
						ref = logs[p]
						return
					}
					if len(logs[p]) != slots {
						t.Fatalf("seed=%d: p%d has %d entries, want %d", seed, p, len(logs[p]), slots)
					}
					for i := range ref {
						if logs[p][i] != ref[i] {
							t.Fatalf("seed=%d: logs diverge at slot %d: %v vs %v", seed, i, logs[p], ref)
						}
					}
				})
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
			}
		})
	}
}

// stepRecorder logs the (state, sends) pair of every step an automaton
// takes, rendered as text.
type stepRecorder struct {
	model.Automaton
	steps []string
}

func (r *stepRecorder) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	ns, out := r.Automaton.Step(p, s, m, d)
	r.steps = append(r.steps, fmt.Sprintf("p%d %s %v", p, rsm.DebugState(ns), out))
	return ns, out
}

// TestWindowOfOneIsTheDefault: NewLog already runs the window of 1, so
// WithPipeline(1) must change nothing — the same (state, sends) sequence,
// step for step, over a fixed 200-step schedule with a crash in it.
func TestWindowOfOneIsTheDefault(t *testing.T) {
	cmds := [][]int{{10, 11}, {20}, {30, 31}, {40}}
	crashes := map[model.ProcessID]model.Time{3: 60}
	record := func(widen bool) []string {
		pattern := model.PatternFromCrashes(len(cmds), crashes)
		sampler := rsm.SamplerForLog(pattern, 80, 3)
		aut := rsm.NewLog(cmds, 6).WithSampler(sampler)
		if widen {
			aut = aut.WithPipeline(1)
		}
		rec := &stepRecorder{Automaton: aut}
		if _, err := sim.Run(sim.Exec{
			Automaton: rec,
			Pattern:   pattern,
			History:   sampler,
			Scheduler: sim.NewFairScheduler(3, 0.8, 3),
			MaxSteps:  200,
		}); err != nil {
			t.Fatal(err)
		}
		return rec.steps
	}
	plain, widened := record(false), record(true)
	if len(plain) != 200 || len(widened) != 200 {
		t.Fatalf("recorded %d and %d steps, want 200", len(plain), len(widened))
	}
	for i := range plain {
		if plain[i] != widened[i] {
			t.Fatalf("step %d differs:\n  NewLog:          %s\n  WithPipeline(1): %s", i, plain[i], widened[i])
		}
	}
}

// TestPipelinedDrainsCommands: pipelining must not starve anyone — with
// slots to spare, every process's commands land.
func TestPipelinedDrainsCommands(t *testing.T) {
	cmds := [][]int{{1, 2}, {3}, {4}}
	logs, done, _ := runPipelined(t, cmds, 10, 4, nil, 3, nil)
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

// TestTakeEntriesOrder: a log whose entries are taken after every step
// hands over exactly the appended entries, in slot order per process, and
// retains none of them — and the run still stops on every correct process
// deciding, since a log's Decision reads its frontier, not its entries. A
// kept log of the same run holds the same values, and takes the same
// number of steps: taking changes nothing the log does.
func TestTakeEntriesOrder(t *testing.T) {
	tk := newTaker()
	cmds := [][]int{{10, 11}, {20}, {30}}
	const slots = 6
	logs, done, steps := runPipelined(t, cmds, slots, 2, nil, 5, tk)
	if !done {
		t.Fatal("a log whose entries are taken never stopped")
	}
	kept, _, keptSteps := runPipelined(t, cmds, slots, 2, nil, 5, nil)
	if steps != keptSteps {
		t.Errorf("the taken run took %d steps, the kept one %d", steps, keptSteps)
	}
	for p := model.ProcessID(0); p < 3; p++ {
		got := tk.entries[p]
		if len(got) != slots {
			t.Fatalf("p%d took %d entries, want %d", p, len(got), slots)
		}
		vs := make([]int, slots)
		for i, e := range got {
			if e.Slot != i {
				t.Fatalf("p%d entry %d has slot %d (out of order): %v", p, i, e.Slot, got)
			}
			if e.V != tk.entries[0][i].V {
				t.Fatalf("taken logs diverge at slot %d: p%d=%d p0=%d", i, p, e.V, tk.entries[0][i].V)
			}
			vs[i] = e.V
		}
		if len(logs[p]) != 0 {
			t.Fatalf("p%d retained %d entries after every take", p, len(logs[p]))
		}
		if !reflect.DeepEqual(vs, kept[p]) {
			t.Errorf("p%d took %v, its kept log holds %v", p, vs, kept[p])
		}
	}
}

// TestEntryRounds: every taken entry carries a plausible round, and the
// parked-message counters move consistently (every replay drains something
// previously parked). p2 starts late and the other two need not wait for
// it (quorum {p0,p1} at both), so they run ahead of p2's window of two
// slots and p2 must park what they send for the slots beyond it.
func TestEntryRounds(t *testing.T) {
	reg := obs.NewRegistry()
	cmds := [][]int{{10, 11}, {20}, {30}}
	const slots, depth = 6, 2
	const late = model.ProcessID(2)
	pattern := model.PatternFromCrashes(3, nil)
	twoOfThree := fd.HistoryFunc(func(p model.ProcessID, _ model.Time) model.FDValue {
		q := model.SetOf(0, 1)
		if p == late {
			q = model.FullSet(3)
		}
		return fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: fd.QuorumValue{Quorum: q}}
	})
	tk := newTaker()
	tk.Automaton = rsm.NewLog(cmds, slots).WithMetrics(reg).WithPipeline(depth)
	res, err := sim.Run(sim.Exec{
		Automaton: tk,
		Pattern:   pattern,
		History:   twoOfThree,
		Scheduler: starveFor(120, late, sim.NewFairScheduler(5, 0.8, 3)),
		MaxSteps:  200000,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("log never filled")
	}
	for p := model.ProcessID(0); p < 3; p++ {
		if len(tk.entries[p]) != slots {
			t.Fatalf("p%d: %d entries taken, want %d", p, len(tk.entries[p]), slots)
		}
		for i, e := range tk.entries[p] {
			if e.Round < 1 {
				t.Fatalf("p%d entry %d decided at round %d, want >= 1", p, i, e.Round)
			}
		}
	}
	parked := reg.Counter("rsm.parked_msgs").Value()
	replayed := reg.Counter("rsm.parked_replayed").Value()
	if parked == 0 {
		t.Fatal("nothing was parked: the late process never fell a window behind")
	}
	if replayed > parked {
		t.Fatalf("replayed %d messages but only %d were ever parked", replayed, parked)
	}
}

// TestInject: Inject only queues. It returns no sends, and the log's
// first-step announce forwards the commands the log was built with and no
// injected one — before or after the state is built — since forwarding an
// injected command is the caller's job. Injected commands wait in pending
// behind the built ones.
func TestInject(t *testing.T) {
	aut := rsm.NewLog([][]int{{5}, {}, {}}, 4)
	st := aut.Inject(aut.InitStateWith(0, 6), 7)
	// The first step also steps slot 0's instance, whose own LEAD is
	// delivered inside the step, so A_nuc reads Ω and Σν+ from a real pair
	// value; the CMD travels to each peer bundled with that LEAD.
	d := fd.PairValue{First: fd.LeaderValue{Leader: 1}, Second: fd.QuorumValue{Quorum: model.FullSet(3)}}
	st, out := aut.Step(0, st, nil, d)
	forwarded := map[int]int{}
	for _, s := range rsm.Flatten(out) {
		if c, ok := s.Payload.(rsm.CommandPayload); ok {
			forwarded[c.Cmd]++
		}
	}
	if len(forwarded) != 1 || forwarded[5] != 2 {
		t.Fatalf("first step forwarded %v, want command 5 to each of 2 peers and nothing else", forwarded)
	}
	st = aut.Inject(st, 8)
	if got := rsm.DebugState(st); !strings.Contains(got, "pending=[5 6 7 8]") {
		t.Fatalf("after the injects the log is %s, want pending=[5 6 7 8]", got)
	}
}

// TestFloorOf starts at zero and the exported accessor tolerates foreign
// states.
func TestFloorOf(t *testing.T) {
	aut := rsm.NewLog([][]int{{1}, {2}}, 2)
	if got := rsm.FloorOf(aut.InitState(0)); got != 0 {
		t.Fatalf("initial floor = %d, want 0", got)
	}
	if got := rsm.FloorOf(nonLogState{}); got != 0 {
		t.Fatalf("foreign-state floor = %d, want 0", got)
	}
}
