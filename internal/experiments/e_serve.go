package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/serve"
)

// E18 measures the serving layer (internal/serve) end to end: a generated
// client workload — Zipf-skewed keys, mixed kv/queue ops, per-client
// session seqs — batched into consensus values and served off the
// replicated log, with exactly-once application checked on every run.
//
// Two grids, one claim each:
//
//   - batch: the per-slot consensus cost is independent of how many
//     commands ride in the slot's batch, so throughput (commands applied
//     per step) scales with batch size;
//   - pipe: the pipelined window advances every awake in-flight instance
//     per λ-step, and what those instances send one peer leaves as one
//     bundle, so msgs per decided slot falls as the window deepens.

const (
	e18N       = 4
	e18Batches = 8  // batches per run, both grids
	e18Slots   = 24 // fixed log capacity: 8 value slots + generous noop slack

	// e18MsgsPerSlotCap bounds fault-free msgs/slot at pipeline 2: slots
	// past the first window start with their quorum already acknowledged
	// (internal/rsm aware.go), decide in round 1, say nothing of round 2
	// unless asked (rsm stepInstance holds that LEAD), send nothing to
	// themselves (rsm loopback), send each peer one bundle per step (rsm
	// Pack), both in-flight slots step on every λ-step (rsm Log.Step) and
	// progress rides that traffic instead of leaving bare (rsm announce) —
	// 25.8 measured, against 32.2 with a PRGR broadcast per appended slot,
	// 62.5 with one slot advanced per λ-step, 81.0 with one message per
	// payload, 103 with the self-sends counted too, 129 with the
	// post-decision round sent too and 225.6 when every slot also paid its
	// own SAW/ACK round trip (the first `pipeline` slots of the 24-slot log
	// still do).
	e18MsgsPerSlotCap = 29
)

var (
	e18BatchGrid = []int{1, 4, 16, 64} // commands per batch (pipeline fixed at 2)
	e18PipeGrid  = []int{1, 2, 4}      // slot instances in flight (batch fixed at 4)
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
		"decide in round 1. Exactly-once application and machine agreement " +
		"hold on every run.",
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
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, rng *rand.Rand) UnitResult {
		var u UnitResult
		seed := cfg.Seed
		batch, pipe := cfg.Arg, 2
		if cfg.Label == "pipe" {
			batch, pipe = 4, cfg.Arg
		}
		wl := serve.Workload{
			Commands: batch * e18Batches, Batch: batch,
			Clients: 8, Keys: 64, Zipf: 1.3, QueueFrac: 0.25,
		}.Gen(rng, e18N)
		total := 0
		for _, bs := range wl {
			for _, b := range bs {
				total += len(b.Cmds)
			}
		}
		pattern := model.NewFailurePattern(e18N)
		reg := obs.NewRegistry()
		// The tracer runs with the logical clock (nil) and a discarded
		// stream: E18 exercises the span-emission path on every unit and
		// folds the span count below, proving tracing adds nothing
		// nondeterministic to the experiment bytes.
		tracer := obs.NewTracer(io.Discard, nil, reg)
		cl := serve.NewCluster(serve.Config{
			N: e18N, Slots: e18Slots, Pipeline: pipe,
			Workload: wl, Target: total, Registry: reg, Tracer: tracer,
		})
		sampler := rsm.SamplerForLog(pattern, 60, seed)
		cl.Log().WithSampler(sampler)
		meter := &logMeter{Automaton: cl.Automaton()}
		res, err := runLog(sc, meter, pattern, sampler, seed)
		if err != nil {
			u.failf("%v: %v", cfg, err)
			return u
		}
		// Exactly-once and agreement, on every unit: each replica applied
		// every distinct command exactly once, and the machines agree.
		var refSum uint64
		slots, dups := 0, 0
		for p := 0; p < e18N; p++ {
			st := cl.Applier(model.ProcessID(p)).StatsOf()
			if st.Commands != int64(total) {
				u.failf("%v: p%d applied %d distinct commands, want %d", cfg, p, st.Commands, total)
				return u
			}
			sum := cl.Applier(model.ProcessID(p)).Checksum()
			if p == 0 {
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
		return []string{g.Key.Label, itoa(g.Key.Arg), itoa(g.Runs()), itoa(g.OKs()),
			g.AvgOverOK("cmds"), g.AvgOverOK("steps"),
			avg(g.Sum("cmds")*1000, g.Sum("steps")),
			avg(g.Sum("msgs"), g.Sum("slots")),
			g.AvgOverOK("dups")}
	},
	Finalize: func(sc Scale, t *Table, gs []Group) {
		// Throughput per grid point (commands per kilo-step) and message
		// cost per decided slot.
		thru := map[string]map[int]float64{"batch": {}, "pipe": {}}
		msgsPerSlot := map[string]map[int]float64{"batch": {}, "pipe": {}}
		for _, g := range gs {
			if g.OKs() == 0 {
				t.Pass = false
				return
			}
			thru[g.Key.Label][g.Key.Arg] = 1000 * float64(g.Sum("cmds")) / float64(g.Sum("steps"))
			msgsPerSlot[g.Key.Label][g.Key.Arg] = float64(g.Sum("msgs")) / float64(g.Sum("slots"))
		}
		bLo, bHi := e18BatchGrid[0], e18BatchGrid[len(e18BatchGrid)-1]
		pLo, pHi := e18PipeGrid[0], e18PipeGrid[len(e18PipeGrid)-1]
		t.Notes = append(t.Notes,
			fmt.Sprintf("throughput, batch %d→%d: %.1f → %.1f cmds/kstep (%.1fx)",
				bLo, bHi, thru["batch"][bLo], thru["batch"][bHi], thru["batch"][bHi]/thru["batch"][bLo]),
			fmt.Sprintf("msgs per decided slot, pipeline %d→%d: %.1f → %.1f",
				pLo, pHi, msgsPerSlot["pipe"][pLo], msgsPerSlot["pipe"][pHi]))
		if thru["batch"][bHi] < 5*thru["batch"][bLo] {
			t.Pass = false
			t.Notes = append(t.Notes, fmt.Sprintf(
				"FAIL: batching %d→%d should multiply throughput at least 5x", bLo, bHi))
		}
		if got := msgsPerSlot["pipe"][2]; got > e18MsgsPerSlotCap {
			t.Pass = false
			t.Notes = append(t.Notes, fmt.Sprintf(
				"FAIL: msgs per decided slot at pipeline 2 is %.1f, above %d: slots no longer decide in round 1 on an already-acknowledged quorum",
				got, e18MsgsPerSlotCap))
		}
		for i := 1; i < len(e18PipeGrid); i++ {
			lo, hi := e18PipeGrid[i-1], e18PipeGrid[i]
			if msgsPerSlot["pipe"][hi] > msgsPerSlot["pipe"][lo] {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf(
					"FAIL: message cost per slot should fall as the window deepens (%d→%d grew %.1f→%.1f)",
					lo, hi, msgsPerSlot["pipe"][lo], msgsPerSlot["pipe"][hi]))
			}
		}
	},
}
