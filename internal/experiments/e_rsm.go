package experiments

import (
	"fmt"
	"math/rand"

	"nuconsensus/internal/rsm"
	"nuconsensus/internal/sim"
)

// q7Slots is the log length Q7 fills per run.
const q7Slots = 5

// q7MsgsPerSlotCap bounds fault-free msgs/slot per system size: with quorum
// awareness carried across slots (internal/rsm aware.go) four of the five
// slots decide in round 1, and the round after a decision is not announced
// unasked (rsm stepInstance), a process's own messages never leave its step
// (rsm loopback), what one step sends one peer is one bundle (rsm Pack), and
// progress rides that traffic instead of leaving bare (rsm announce).
// Measured 27.0 / 48.3 / 84.7, capped at + 12 % rounded up (the one-seed
// run of the package tests reads just over 30 at n = 3); 32.7 / 59.3 /
// 100.7 with a PRGR broadcast per appended slot, 36.0 / 69.3 / 116.0 with
// one message per payload, 48 / 88 / 139 with the self-sends counted too,
// 64 / 117 / 185 with the post-decision round sent too, 122 / 220 / 345
// with each slot also paying its own SAW/ACK round trip.
var q7MsgsPerSlotCap = map[int]int{3: 31, 4: 55, 5: 95}

// q7Spec measures the replicated-log application built on per-slot A_nuc
// instances: steps and messages per appended slot, and the agreement of
// correct replicas' logs, across n and f.
var q7Spec = &Spec{
	ID:    "Q7",
	Title: "Replicated log (SMR over A_nuc): cost per slot",
	Claim: "§1 motivation: consensus is the substrate of fault-tolerant " +
		"replication. The per-slot pipeline (live old instances, command " +
		"forwarding, no DECIDED-gossip — unsound under nonuniformity, see E14) " +
		"sustains a steady per-slot cost, and a slot whose quorum was " +
		"acknowledged in an earlier slot decides in round 1.",
	Columns: []string{"n", "f", "slots", "runs", "ok", "avg steps/slot", "avg msgs/slot"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 4, 5}, func(int) []int { return []int{0, 1} })
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		pattern := staggered(cfg.N, cfg.F, false, 40, 20)
		res, err := sim.Run(sim.Exec{
			Automaton: rsm.NewLog(oneCommandEach(cfg.N), q7Slots),
			Pattern:   pattern,
			History:   rsm.PairForLog(pattern, 80, cfg.Seed),
			Scheduler: sim.NewFairScheduler(cfg.Seed, 0.8, 3),
			MaxSteps:  min(sc.MaxSteps*4, 200000),
			StopWhen:  rsm.AllAppended(pattern, q7Slots),
		})
		switch {
		case err != nil || !res.Stopped:
			u.failf("%v: err=%v filled=%v", cfg, err, res != nil && res.Stopped)
		case !logsAgree(res.Config, pattern):
			u.failf("%v: correct logs diverged", cfg)
		default:
			u.OK = true
			u.Add("steps", res.Steps)
			u.Add("msgs", res.MessagesSent)
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa(g.Key.F), itoa(q7Slots),
			itoa(g.Runs()), itoa(g.OKs()),
			avg(g.Sum("steps")/q7Slots, g.OKs()), avg(g.Sum("msgs")/q7Slots, g.OKs())}
	},
	Finalize: func(_ Scale, t *Table, gs []Group) {
		// A crashed replica must cost less per slot, not more: its decided
		// slots go quiet at the survivors, and n−1 senders remain.
		faultFree := map[int]Group{}
		for _, g := range gs {
			if g.Key.F == 0 {
				faultFree[g.Key.N] = g
			}
		}
		for _, g := range gs {
			if limit := q7MsgsPerSlotCap[g.Key.N]; g.Key.F == 0 && g.OKs() > 0 && g.Sum("msgs") > limit*q7Slots*g.OKs() {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf("FAIL: n=%d f=0 sends more than %d msgs per slot: slots no longer decide in round 1 on an already-acknowledged quorum, or announce the round after it unasked", g.Key.N, limit))
			}
			base, ok := faultFree[g.Key.N]
			if g.Key.F == 0 || !ok || g.OKs() == 0 || base.OKs() == 0 {
				continue
			}
			for _, k := range []string{"steps", "msgs"} {
				if g.Sum(k)*base.OKs() > base.Sum(k)*g.OKs() {
					t.Pass = false
					t.Notes = append(t.Notes, fmt.Sprintf("FAIL: n=%d f=%d pays more %s per slot than f=0", g.Key.N, g.Key.F, k))
				}
			}
		}
	},
}
