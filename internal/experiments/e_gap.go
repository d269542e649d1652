package experiments

import (
	"math/rand"

	"nuconsensus/internal/check"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/transform"
)

// e13Spec exercises the ◇P view of the heartbeat detector: under partial
// synchrony, the emitted suspect sets eventually equal exactly the faulty
// set at every correct process (strong completeness + eventual strong
// accuracy).
var e13Spec = &Spec{
	ID:    "E13",
	Title: "Heartbeat suspicion is eventually perfect (◇P) (extension)",
	Claim: "Adaptive-timeout heartbeats under eventual timeliness suspect exactly " +
		"the crashed processes, permanently — the ◇P specification.",
	Columns: []string{"n", "f", "runs", "ok", "avg accurate-from t"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 5, 8}, func(n int) []int {
			if n/2 > 1 {
				return []int{1, n / 2}
			}
			return []int{1}
		})
	},
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		pattern := staggered(cfg.N, cfg.F, false, 40, 30)
		faulty := pattern.Faulty()
		return fdRun{aut: hb.NewSuspector(cfg.N, 0, 0), pattern: pattern, hist: fd.Null,
			sched: partialSync(300, cfg.Seed, 0.2, 20), steps: 2500,
			horizon: lastDeviation(func(v model.FDValue) bool {
				sus, ok := fd.SuspectsOf(v)
				return ok && sus != faulty
			}),
			spec: check.EventuallyPerfect,
		}.unit(cfg)
	},
	Row: stabRow,
}

// e14Spec demonstrates the nonuniform/uniform gap the paper's title is
// about: A_nuc with (Ω, Σν+) admits runs in which a *faulty* process
// decides a different value than the correct ones (legal for nonuniform
// consensus), while MR-Σ with (Ω, Σ) — a uniform algorithm — never does on
// the same failure patterns. This is why Σν (and Σν+) are strictly cheaper
// detectors than Σ: they buy agreement only among the correct.
var e14Spec = &Spec{
	ID:    "E14",
	Title: "The nonuniform/uniform gap: faulty divergence under A_nuc",
	Claim: "§1: in nonuniform consensus 'a faulty process can reach a decision on " +
		"any proposed value' — and A_nuc actually exhibits such runs, while a " +
		"uniform algorithm (MR-Σ) never can.",
	Columns: []string{"algorithm", "runs", "faulty-divergent runs", "correct-divergent runs"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for i, c := range bothSides {
			cfgs = append(cfgs, seedRange(Config{Label: c.alg + " + " + c.det, Arg: i}, sc.Seeds*10)...)
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		c := bothSides[cfg.Arg]
		// The faulty process proposes the odd value out and crashes late
		// enough to decide on its own junk quorum.
		pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 150})
		tally(&u, "", sc, c.build([]int{0, 0, 1}), pattern, c.hist(pattern, 200, cfg.Seed), cfg.Seed, 30000)
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{g.Key.Label, itoa(g.Sum("runs")), itoa(g.Sum("fdiv")), itoa(g.Sum("viol"))}
	},
	Finalize: func(_ Scale, t *Table, gs []Group) {
		anuc, mr := gs[0], gs[1]
		// The gap is real iff A_nuc exhibits faulty divergence (but never
		// correct divergence) and the uniform algorithm exhibits neither.
		t.Pass = anuc.Sum("fdiv") > 0 && anuc.Sum("viol") == 0 &&
			mr.Sum("fdiv") == 0 && mr.Sum("viol") == 0
		if anuc.Sum("fdiv") == 0 {
			t.Notes = append(t.Notes, "A_nuc never showed faulty divergence — adversary too weak to exhibit the gap")
		}
	},
}

// q6Strategies are the two schedule-search path strategies Q6 compares.
var q6Strategies = []struct {
	name string
	s    transform.PathStrategy
}{
	{"longest-chain", transform.LongestChain},
	{"own-chain (ablated)", transform.OwnChain},
}

// q6Spec ablates the extraction's schedule-search path strategy: the
// canonical longest chain simulates cross-process schedules and converges;
// searching only the process's own samples can never find deciding
// schedules (a solo run of a consensus algorithm cannot decide), so the
// emulation stays stuck at Π and completeness is never achieved.
var q6Spec = &Spec{
	ID:    "Q6",
	Title: "Extraction search ablation: longest chain vs own-samples chain",
	Claim: "§4.2/Lemma 4.10: the simulated schedules must interleave all live " +
		"processes; the path choice is load-bearing, not an implementation detail.",
	Columns: []string{"strategy", "runs", "emulation valid", "stuck at Π"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for i, st := range q6Strategies {
			cfgs = append(cfgs, seedRange(Config{Label: st.name, Arg: i}, min(sc.Seeds, 3))...)
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 30})
		outs, stab, end, err := fdRun{
			aut:     transform.NewSigmaNuExtractorWithStrategy(3, aNuc.build, 1, q6Strategies[cfg.Arg].s),
			pattern: pattern, hist: aNuc.hist(pattern, 40, cfg.Seed), steps: extractionBudget(3),
		}.run(cfg.Seed)
		if err != nil {
			u.failf("%v: %v", cfg, err)
			return u
		}
		u.Add("runs", 1)
		if stab <= end*4/5 && check.SigmaNu(outs, pattern, stab) == nil && stab >= 0 {
			// Valid requires genuinely tightening beyond Π at correct
			// processes, else "valid" is vacuous (Π forever fails
			// completeness whenever f > 0 — which stab > end*4/5 caught).
			u.Add("valid", 1)
		}
		allPi := true
		for _, s := range outs {
			if q, _ := fd.QuorumOf(s.Val); pattern.Correct().Has(s.P) && q != pattern.All() {
				allPi = false
				break
			}
		}
		if allPi {
			u.Add("stuck", 1)
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{g.Key.Label, itoa(g.Sum("runs")),
			itoa(g.Sum("valid")), itoa(g.Sum("stuck"))}
	},
	Finalize: func(_ Scale, t *Table, gs []Group) {
		for _, g := range gs {
			switch q6Strategies[g.Key.Arg].s {
			case transform.LongestChain:
				if g.Sum("valid") != g.Sum("runs") {
					t.Pass = false
				}
			case transform.OwnChain:
				if g.Sum("stuck") != g.Sum("runs") {
					t.Pass = false
					t.Notes = append(t.Notes, "own-chain ablation unexpectedly made progress")
				}
			}
		}
		t.Notes = append(t.Notes,
			"the ablated strategy stays at Π forever: with f > 0 its emulation can never satisfy completeness")
	},
}
