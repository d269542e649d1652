package experiments

import (
	"fmt"
	"math/rand"

	"nuconsensus/internal/explore"
)

// e16Scenarios enumerates E16's exploration targets in canonical order:
// the A_nuc exhaustive-verification scenarios (failure-free plus one
// crash-at-2 pattern per process) followed by the naive-MR contamination
// hunt. Rebuilt per call — scenarios carry closures, not state.
func e16Scenarios() []explore.Scenario {
	return append(explore.VerifyANuc(3, 1), explore.Contamination())
}

// e16Bound picks the exploration depth for one scenario at one scale: the
// verification scenarios deepen from 6 to 8 at full scale (bound 8 visits
// ~160k states on the failure-free pattern), while the contamination hunt
// always runs at the scenario's own bound — the shallowest violation sits
// at depth 29, so there is nothing to scale down.
func e16Bound(sc Scale, s explore.Scenario) int {
	if s.Label == "naive-mr/contamination" {
		return s.Bound
	}
	if sc.Seeds >= Full.Seeds {
		return 8
	}
	return 6
}

// e16Spec runs the bounded model checker (internal/explore) as an
// experiment: schedule-space exhaustive verification of A_nuc's safety on
// the one hand, exhaustive discovery + shrinking of the §6.3 contamination
// on the other. It complements E6: where E6 samples randomized schedules
// for violations, E16 enumerates every schedule and every finite-menu
// detector choice up to a depth bound.
var e16Spec = &Spec{
	ID:    "E16",
	Title: "Bounded model checking: A_nuc exhaustively safe; naive MR contamination found and shrunk",
	Claim: "Theorem 6.25 (safety half) / §6.3: within the explored bound, no " +
		"schedule and no legal finite-menu (Ω, Σν+) choice makes A_nuc violate " +
		"validity or nonuniform agreement, while the naive MR+Σν adaptation has " +
		"a concrete minimal schedule that does — found exhaustively and shrunk " +
		"to a replayable counterexample.",
	Columns: []string{"target", "bound", "states", "naive prefixes", "reduction", "violations", "counterexample"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for i, s := range e16Scenarios() {
			cfgs = append(cfgs, Config{Label: s.Label, N: 3, Arg: i})
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		s := e16Scenarios()[cfg.Arg]
		o := s.Opts
		o.Bound = e16Bound(sc, s)
		o.Metrics = sc.Metrics
		res, err := explore.Explore(o)
		if err != nil {
			u.failf("%s: %v", s.Label, err)
			return u
		}
		cex := "none"
		if s.Label == "naive-mr/contamination" {
			if res.Counterexample == nil {
				u.failf("%s: exhaustive search found no contamination within bound %d", s.Label, o.Bound)
			} else {
				shrunk := explore.Shrink(o, res.Counterexample.Path)
				cex = fmt.Sprintf("found at depth %d, shrunk to %d steps", len(res.Counterexample.Path), len(shrunk))
			}
		} else if res.Violations != 0 {
			u.failf("%s: A_nuc safety violation: %s", s.Label, res.Counterexample.Err)
		}
		if res.Reduction < 2 {
			u.failf("%s: reduction %.2f < 2x over naive schedule enumeration", s.Label, res.Reduction)
		}
		u.OK = !u.Fail
		u.Cells = []string{
			s.Label,
			itoa(o.Bound),
			itoa(int(res.States)),
			fmt.Sprintf("%.3g", res.SchedulePrefixes),
			fmt.Sprintf("%.3gx", res.Reduction),
			itoa(int(res.Violations)),
			cex,
		}
		return u
	},
	Row: unitRow,
	Finalize: func(_ Scale, t *Table, _ []Group) {
		t.Notes = append(t.Notes,
			"exhaustive up to the depth bound: every interleaving of process steps, every per-link message delivery and every finite-menu FD value; reduction = naive schedule prefixes / unique states (state merging + sleep-set POR + stutter elimination)")
	},
}
