package experiments

import (
	"math/rand"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/hb"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
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
		var cfgs []Config
		for _, n := range []int{3, 5, 8} {
			fs := []int{1}
			if n/2 > 1 {
				fs = append(fs, n/2)
			}
			for _, f := range fs {
				cfgs = append(cfgs, seedRange(Config{N: n, F: f}, sc.Seeds)...)
			}
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		u := UnitResult{Counted: true}
		n, f, seed := cfg.N, cfg.F, cfg.Seed
		pattern := model.NewFailurePattern(n)
		for i := 0; i < f; i++ {
			pattern.SetCrash(model.ProcessID(n-1-i), model.Time(40+30*i))
		}
		col := obs.NewCollector(obs.KindFDOutput)
		res, err := sim.Run(sim.Exec{
			Automaton: hb.NewSuspector(n, 0, 0),
			Pattern:   pattern,
			History:   fd.Null,
			Scheduler: &sim.PartialSyncScheduler{
				GST:    300,
				Before: sim.NewFairScheduler(seed, 0.2, 20),
				After:  sim.NewFairScheduler(seed+99, 0.9, 2),
			},
			MaxSteps: 2500,
			Bus:      obs.NewBus(nil, nil, col),
		})
		if err != nil {
			u.Fail = true
			return u
		}
		outs := check.History(col.Events(), res.Ticks)
		stab := suspicionHorizon(outs, pattern)
		if stab > res.Ticks*4/5 {
			u.failf("n=%d f=%d seed=%d: suspicion unstable until %d of %d", n, f, seed, stab, res.Ticks)
			return u
		}
		if err := check.EventuallyPerfect(outs, pattern, stab); err != nil {
			u.failf("n=%d f=%d seed=%d: %v", n, f, seed, err)
			return u
		}
		u.OK = true
		if stab > 0 {
			u.Add("stab", int(stab))
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa(g.Key.F),
			itoa(g.Runs()), itoa(g.OKs()), g.AvgOverOK("stab")}
	},
}

// suspicionHorizon returns the last time a correct process's suspect set
// differed from faulty(F), or -1.
func suspicionHorizon(outs []check.Sample, pattern *model.FailurePattern) model.Time {
	correct := pattern.Correct()
	faulty := pattern.Faulty()
	last := model.Time(-1)
	for _, s := range outs {
		if !correct.Has(s.P) {
			continue
		}
		if sus, ok := fd.SuspectsOf(s.Val); ok && sus != faulty && s.T > last {
			last = s.T
		}
	}
	return last
}

// e14Contestants are the two sides of the nonuniform/uniform gap.
var e14Contestants = []struct {
	label string
	build func(props []int) model.Automaton
	hist  func(*model.FailurePattern, int64) model.History
}{
	{
		label: "A_nuc + (Ω,Σν+)",
		build: func(props []int) model.Automaton { return consensus.NewANuc(props) },
		hist: func(p *model.FailurePattern, seed int64) model.History {
			return fd.PairHistory{First: fd.NewOmega(p, 200, seed), Second: fd.NewSigmaNuPlus(p, 200, seed)}
		},
	},
	{
		label: "MR-Σ + (Ω,Σ)",
		build: func(props []int) model.Automaton { return consensus.NewMRSigma(props) },
		hist: func(p *model.FailurePattern, seed int64) model.History {
			return fd.PairHistory{First: fd.NewOmega(p, 200, seed), Second: fd.NewSigma(p, 200, seed)}
		},
	},
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
		seeds := sc.Seeds * 10
		var cfgs []Config
		for i, c := range e14Contestants {
			cfgs = append(cfgs, seedRange(Config{Label: c.label, Arg: i}, seeds)...)
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		c := e14Contestants[cfg.Arg]
		// The faulty process proposes the odd value out and crashes late
		// enough to decide on its own junk quorum.
		n := 3
		pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{2: 150})
		r, err := runConsensus(sc, c.build([]int{0, 0, 1}), pattern, c.hist(pattern, cfg.Seed), cfg.Seed, 30000)
		if err != nil || !r.Decided {
			return u
		}
		u.Counted = true
		u.Add("runs", 1)
		if r.Outcome.NonuniformAgreement(pattern) != nil {
			u.Add("correctDiv", 1)
		} else if r.Outcome.UniformAgreement() != nil {
			u.Add("faultyDiv", 1)
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		return []string{g.Key.Label, itoa(g.Sum("runs")),
			itoa(g.Sum("faultyDiv")), itoa(g.Sum("correctDiv"))}
	},
	Finalize: func(_ Scale, t *Table, gs []Group) {
		anuc, mr := gs[0], gs[1]
		// The gap is real iff A_nuc exhibits faulty divergence (but never
		// correct divergence) and the uniform algorithm exhibits neither.
		t.Pass = anuc.Sum("faultyDiv") > 0 && anuc.Sum("correctDiv") == 0 &&
			mr.Sum("faultyDiv") == 0 && mr.Sum("correctDiv") == 0
		if anuc.Sum("faultyDiv") == 0 {
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
		seeds := min(sc.Seeds, 3)
		var cfgs []Config
		for i, st := range q6Strategies {
			cfgs = append(cfgs, seedRange(Config{Label: st.name, Arg: i}, seeds)...)
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		strat := q6Strategies[cfg.Arg]
		n := 3
		pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{2: 30})
		hist := fd.PairHistory{First: fd.NewOmega(pattern, 40, cfg.Seed), Second: fd.NewSigmaNuPlus(pattern, 40, cfg.Seed)}
		aut := transform.NewSigmaNuExtractorWithStrategy(n,
			func(props []int) model.Automaton { return consensus.NewANuc(props) }, 1, strat.s)
		outs, stab, end, err := runTransformer(aut, pattern, hist, cfg.Seed, extractionBudget(n))
		if err != nil {
			u.Fail = true
			return u
		}
		u.Counted = true
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
