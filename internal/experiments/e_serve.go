package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
)

// E18 measures the serving layer (internal/serve) end to end: a generated
// client workload — Zipf-skewed keys, mixed kv/queue ops, per-client
// session seqs — batched into consensus values and served off the
// replicated log, with exactly-once application checked on every run.
//
// Three grids, one claim each:
//
//   - batch: the per-slot consensus cost is independent of how many
//     commands ride in the slot's batch, so throughput (commands applied
//     per step) scales with batch size;
//   - pipe: the pipelined window advances every awake in-flight instance
//     per λ-step, and what those instances send one peer leaves as one
//     bundle, so msgs per decided slot falls as the window deepens;
//   - n: at the centre point (batch 4, pipeline 2) the slot cost stays
//     under a per-n cap at n = 3, 4, 5, and a crashed replica makes a slot
//     cost no more.

const (
	e18N       = 4  // system size of the batch and pipe grids
	e18Batches = 8  // batches per run, every grid
	e18Slots   = 24 // fixed log capacity: 8 value slots + generous noop slack
)

// e18MsgsPerSlotCap bounds fault-free msgs/slot at the centre point per
// system size. It guards the log's per-slot cost: slots past the first
// window start with their quorum already acknowledged (internal/rsm
// aware.go) and decide in round 1, a decided instance says nothing of the
// next round unless asked (rsm stepInstance), a process sends nothing to
// itself (rsm loopback), one step sends a peer one bundle (rsm pack), both
// in-flight slots step on every λ-step (rsm Log.Step), progress rides that
// traffic, and a round-1 LEAD goes only to the processes that follow its
// sender (both rows of rsm outbox.go). The caps were set at
// max(⌈quick × 1.12⌉, ⌈async max⌉ + 1) when the rows read 12.1 / 24.0 /
// 41.8 quick and at most 12.8 / 26.5 / 43.8 async. Since a slot starts
// round 1 in the step that opens it they read 12.5 / 24.0 / 41.2 quick,
// and over eight async runs 12.5–13.3 / 25.4–26.2 / 39.9–41.7 (an earlier
// sixteen put n = 3 at 12.5–13.6): n = 3 keeps 0.7 below its cap at worst
// (0.4 at 13.6), n = 4 1.8 and n = 5 5.3. Since the async driver joins a
// link's pending messages into one take and holds a process's sends over
// the backlog it found (substrate.RunCluster), eight async runs read
// 13.0–13.5 / 25.5–25.9 / 40.0–43.5, against 13.0–13.3 / 25.5–25.8 /
// 40.6–41.9 in eight runs without it: the margin at n = 3 is no wider
// (0.5 at worst). The formula would now give n = 3
// a cap of 15; 14 is held, not re-derived, because a table gate is never
// raised. With no quorum carried across slots the grid reads 28.0 / 53.2 /
// 92.4.
var e18MsgsPerSlotCap = map[int]int{3: 14, 4: 28, 5: 47}

var (
	e18BatchGrid = []int{1, 4, 16, 64} // commands per batch (pipeline fixed at 2)
	e18PipeGrid  = []int{1, 2, 4}      // slot instances in flight (batch fixed at 4)
	e18NGrid     = []int{3, 4, 5}      // system sizes, each with f = 0 and 1 (batch 4, pipeline 2)
)

var e18Spec = &Spec{
	ID:    "E18",
	Title: "Serving layer: batched throughput and pipelined slot cost",
	Claim: "§1 motivation, as a service: consensus per slot costs the same " +
		"whether the slot carries one command or sixty-four, so batching " +
		"multiplies served throughput; and the pipelined window advances every " +
		"awake in-flight instance per λ-step, so msgs per decided slot falls " +
		"as the window deepens — and is low: a quorum acknowledged in one " +
		"slot is already seen in the next, so slots past the first window " +
		"decide in round 1. The per-slot pipeline (live old instances, " +
		"command forwarding, no DECIDED-gossip — unsound under " +
		"nonuniformity, see E14) holds that cost at n = 3, 4 and 5, and a " +
		"crashed replica makes a slot cost no more. Exactly-once application " +
		"and machine agreement hold on every run.",
	Columns: []string{"grid", "arg", "runs", "ok", "cmds/run", "steps/run", "cmds/kstep", "msgs/slot", "dups/run"},
	// Portable: the unit drives the substrate interface with
	// StopWhenDecided (replicaState implements model.Decider), so it runs
	// unchanged on the async and tcp backends.
	Portable: true,
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for _, b := range e18BatchGrid {
			cfgs = append(cfgs, seedRange(Config{Label: "batch", N: e18N, Arg: b}, sc.Seeds)...)
		}
		for _, k := range e18PipeGrid {
			cfgs = append(cfgs, seedRange(Config{Label: "pipe", N: e18N, Arg: k}, sc.Seeds)...)
		}
		return append(cfgs, grid(Config{Label: "n"}, sc.Seeds, e18NGrid, func(int) []int { return []int{0, 1} })...)
	},
	Unit: func(sc Scale, cfg Config, rng *rand.Rand) UnitResult {
		var u UnitResult
		seed := cfg.Seed
		batch, pipe := cfg.Arg, 2
		switch cfg.Label {
		case "pipe":
			batch, pipe = 4, cfg.Arg
		case "n":
			batch = 4
		}
		// The highest f ids crash from t = 40 on. Commands are generated for
		// the correct replicas only: a batch still queued at a replica when
		// it dies would be lost, and with it the target.
		pattern := staggered(cfg.N, cfg.F, false, 40, 20)
		correct := pattern.Correct().Slice()
		gen := serve.Workload{
			Commands: batch * e18Batches, Batch: batch,
			Clients: 8, Keys: 64, Zipf: 1.3, QueueFrac: 0.25,
		}.Gen(rng, len(correct))
		wl := make([][]serve.Batch, cfg.N)
		total := 0
		for i, p := range correct {
			wl[p] = gen[i]
			for _, b := range gen[i] {
				total += len(b.Cmds)
			}
		}
		reg := obs.NewRegistry()
		// The tracer runs with the logical clock (nil) and a discarded
		// stream: E18 exercises the span-emission path on every unit and
		// folds the span count below, proving tracing adds nothing
		// nondeterministic to the experiment bytes.
		tracer := obs.NewTracer(io.Discard, nil, reg)
		cl := serve.NewCluster(serve.Config{
			N: cfg.N, Slots: e18Slots, Pipeline: pipe,
			Workload: wl, Target: total, Correct: pattern.Correct(),
			Registry: reg, Tracer: tracer,
		})
		sampler := rsm.SamplerForLog(pattern, 60, seed)
		cl.Log().WithSampler(sampler)
		meter := &logMeter{Automaton: cl.Automaton()}
		res, err := runLog(sc, meter, pattern, sampler, seed)
		if err != nil {
			u.failf("%v: %v", cfg, err)
			return u
		}
		// Exactly-once and agreement, on every unit: each correct replica
		// applied every distinct command exactly once, and their machines
		// agree.
		var refSum uint64
		slots, dups := 0, 0
		for i, p := range correct {
			st := cl.Applier(p).StatsOf()
			if st.Commands != int64(total) {
				u.failf("%v: p%d applied %d distinct commands, want %d", cfg, p, st.Commands, total)
				return u
			}
			sum := cl.Applier(p).Checksum()
			if i == 0 {
				refSum = sum
			} else if sum != refSum {
				u.failf("%v: p%d machine checksum %x != %x", cfg, p, sum, refSum)
				return u
			}
			if st.Frontier > slots {
				slots = st.Frontier
			}
			dups += int(st.Dups)
		}
		u.OK = true
		u.Add("cmds", total)
		u.Add("steps", res.Steps)
		u.Add("msgs", int(meter.msgs.Load()))
		u.Add("slots", slots)
		u.Add("dups", dups)
		fold(sc.Metrics, reg, []string{
			"serve.apply.commands", "serve.apply.dup_commands",
			"serve.apply.batches", "serve.apply.dup_batches",
			"serve.apply.noops", "serve.apply.stalls",
			"serve.sessions.compactions",
			"obs.spans",
		}, []string{"serve.sessions.live"})
		return u
	},
	Row: func(_ Scale, g Group) []string {
		arg := itoa(g.Key.Arg)
		if g.Key.Label == "n" {
			arg = fmt.Sprintf("%d f=%d", g.Key.N, g.Key.F)
		}
		return []string{g.Key.Label, arg, itoa(g.Runs()), itoa(g.OKs()),
			g.AvgOverOK("cmds"), g.AvgOverOK("steps"),
			avg(g.Sum("cmds")*1000, g.Sum("steps")),
			avg(g.Sum("msgs"), g.Sum("slots")),
			g.AvgOverOK("dups")}
	},
	Finalize: func(_ Scale, t *Table, gs []Group) {
		groups := map[Config]Group{}
		for _, g := range gs {
			if g.OKs() == 0 {
				t.Pass = false
				return
			}
			groups[g.Key] = g
		}
		// Throughput (commands per kilo-step) and message cost per decided
		// slot of one grid point.
		thru := func(c Config) float64 {
			g := groups[c]
			return 1000 * float64(g.Sum("cmds")) / float64(g.Sum("steps"))
		}
		perSlot := func(c Config) float64 {
			g := groups[c]
			return float64(g.Sum("msgs")) / float64(g.Sum("slots"))
		}
		batchAt := func(b int) Config { return Config{Label: "batch", N: e18N, Arg: b} }
		pipeAt := func(k int) Config { return Config{Label: "pipe", N: e18N, Arg: k} }
		nAt := func(n, f int) Config { return Config{Label: "n", N: n, F: f} }
		bLo, bHi := batchAt(e18BatchGrid[0]), batchAt(e18BatchGrid[len(e18BatchGrid)-1])
		pLo, pHi := pipeAt(e18PipeGrid[0]), pipeAt(e18PipeGrid[len(e18PipeGrid)-1])
		var sizes, faultFree, crashed []string
		for _, n := range e18NGrid {
			sizes = append(sizes, itoa(n))
			faultFree = append(faultFree, fmt.Sprintf("%.1f", perSlot(nAt(n, 0))))
			crashed = append(crashed, fmt.Sprintf("%.1f", perSlot(nAt(n, 1))))
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("throughput, batch %d→%d: %.1f → %.1f cmds/kstep (%.1fx)",
				bLo.Arg, bHi.Arg, thru(bLo), thru(bHi), thru(bHi)/thru(bLo)),
			fmt.Sprintf("msgs per decided slot, pipeline %d→%d: %.1f → %.1f",
				pLo.Arg, pHi.Arg, perSlot(pLo), perSlot(pHi)),
			fmt.Sprintf("msgs per decided slot, n = %s: %s fault-free, %s with the highest id crashed at t = 40",
				strings.Join(sizes, " / "), strings.Join(faultFree, " / "), strings.Join(crashed, " / ")))
		if thru(bHi) < 5*thru(bLo) {
			t.Pass = false
			t.Notes = append(t.Notes, fmt.Sprintf(
				"FAIL: batching %d→%d should multiply throughput at least 5x", bLo.Arg, bHi.Arg))
		}
		for i := 1; i < len(e18PipeGrid); i++ {
			lo, hi := pipeAt(e18PipeGrid[i-1]), pipeAt(e18PipeGrid[i])
			if perSlot(hi) > perSlot(lo) {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf(
					"FAIL: message cost per slot should fall as the window deepens (%d→%d grew %.1f→%.1f)",
					lo.Arg, hi.Arg, perSlot(lo), perSlot(hi)))
			}
		}
		for _, n := range e18NGrid {
			if got := perSlot(nAt(n, 0)); got > float64(e18MsgsPerSlotCap[n]) {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf(
					"FAIL: msgs per decided slot at n=%d f=0 is %.1f, above %d: slots no longer decide in round 1 on an already-acknowledged quorum",
					n, got, e18MsgsPerSlotCap[n]))
			}
			// A crashed replica must cost less per slot, not more: its
			// decided slots go quiet at the survivors, and n−1 senders
			// remain.
			base, hit := groups[nAt(n, 0)], groups[nAt(n, 1)]
			if hit.Sum("steps")*base.OKs() > base.Sum("steps")*hit.OKs() {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf("FAIL: n=%d f=1 pays more steps per run than f=0", n))
			}
			if perSlot(nAt(n, 1)) > perSlot(nAt(n, 0)) {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf("FAIL: n=%d f=1 pays more msgs per slot than f=0", n))
			}
		}
	},
}
