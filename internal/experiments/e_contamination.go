package experiments

import (
	"fmt"
	"math/rand"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// contaminationAdversary builds the §6.3 contamination setup: a faulty
// process whose quorum module emits junk quorums (so it races ahead deciding
// alone on its own estimate) and an Ω that swings between the real leader
// and the faulty process before stabilizing, so stragglers adopt the
// faulty process's stale estimate.
type contaminationAdversary struct {
	n         int
	misleader model.ProcessID
	period    model.Time
	stabilize model.Time
	quorum    quorumFD
}

func (a contaminationAdversary) pattern() *model.FailurePattern {
	return model.PatternFromCrashes(a.n, map[model.ProcessID]model.Time{a.misleader: a.stabilize + 40})
}

// history is the adversary's (swinging Ω, quorum) pair history.
func (a contaminationAdversary) history(pattern *model.FailurePattern, seed int64) model.History {
	return fd.PairHistory{
		First: &fd.AlternatingOmega{
			Misleader: a.misleader,
			Leader:    pattern.Correct().Min(),
			Period:    a.period,
			Stabilize: a.stabilize,
			SelfLoyal: true,
		},
		Second: a.quorum(pattern, a.stabilize, seed),
	}
}

// hunt runs build against the adversary for one seed, the faulty process
// proposing the divergent estimate, and tallies the outcome on u under key.
func (a contaminationAdversary) hunt(u *UnitResult, key string, sc Scale, build func(props []int) model.Automaton, seed int64, maxSteps int) {
	pattern := a.pattern()
	props := make([]int, a.n)
	props[a.misleader] = 1
	tally(u, key, sc, build(props), pattern, a.history(pattern, seed), seed, maxSteps)
}

// e6Adversary is the fixed adversary of E6 (and the Q5 ablations).
var e6Adversary = contaminationAdversary{n: 3, misleader: 2, period: 40, stabilize: 280, quorum: sigmaNu}

// e6Contestants are the two sides of E6 and Q4, each with its budget.
var e6Contestants = []struct {
	label  string
	build  func(props []int) model.Automaton
	budget int
}{
	{"MR-naiveΣν", func(props []int) model.Automaton { return consensus.NewMRNaiveNu(props) }, 20000},
	{"T_{Σν→Σν+}∘A_nuc", boostedANuc, 8000},
}

// e6Spec stages the contamination scenario of §6.3: the naive Mostéfaoui–
// Raynal adaptation with Σν quorums violates nonuniform agreement under
// the adversary, while A_nuc (composed with T_{Σν→Σν+} per Theorem 6.28)
// never does on the same histories.
var e6Spec = &Spec{
	ID:    "E6",
	Title: "Contamination: naive MR+Σν violates agreement; A_nuc does not",
	Claim: "§6.3: replacing majorities by Σν quorums in MR admits contamination " +
		"(a correct process adopts a faulty process's estimate after another " +
		"correct process decided differently); A_nuc's distrust + quorum-awareness " +
		"machinery prevents it.",
	Columns: []string{"algorithm", "runs", "agreement violations", "undecided"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for i, c := range e6Contestants {
			cfgs = append(cfgs, seedRange(Config{Label: c.label, Arg: i}, sc.Seeds*10)...)
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		c := e6Contestants[cfg.Arg]
		e6Adversary.hunt(&u, "", sc, c.build, cfg.Seed, c.budget)
		return u
	},
	Row: huntRow,
	Finalize: func(_ Scale, t *Table, gs []Group) {
		naive, anuc := gs[0], gs[1]
		t.Pass = naive.Sum("viol") > 0 && anuc.Sum("viol") == 0 && anuc.Sum("undec") == 0
		if naive.Sum("viol") == 0 {
			t.Notes = append(t.Notes, "hunt failed to exhibit the naive algorithm's contamination — adversary too weak")
		}
	},
}

// huntRow renders a hunt group: label, runs, violations, undecided.
func huntRow(_ Scale, g Group) []string {
	return []string{g.Key.Label, itoa(g.Sum("runs")), itoa(g.Sum("viol")), itoa(g.Sum("undec"))}
}

// q4Spec sweeps the adversary's Ω swing period and reports contamination
// frequency for the naive algorithm vs A_nuc. Each unit hunts both
// contestants on the same seed, so a period is one group and one row.
var q4Spec = &Spec{
	ID:    "Q4",
	Title: "Contamination frequency vs adversary swing period",
	Claim: "§6.3: contamination is a scheduling/detector-timing phenomenon — its " +
		"frequency in the naive algorithm varies with the adversary, while A_nuc " +
		"stays at zero violations for every adversary.",
	Columns: []string{"Ω swing period", "naive violations/runs", "A_nuc violations/runs"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for _, period := range []int{15, 40, 80, 140} {
			cfgs = append(cfgs, seedRange(Config{Arg: period}, sc.Seeds*7)...)
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		adv := e6Adversary
		adv.period = model.Time(cfg.Arg)
		for _, c := range e6Contestants {
			adv.hunt(&u, c.label, sc, c.build, cfg.Seed, c.budget)
		}
		if u.Metrics[e6Contestants[1].label+"viol"] > 0 {
			u.failf("%v: A_nuc violated nonuniform agreement", cfg)
		}
		return u
	},
	Row: func(_ Scale, g Group) []string {
		row := []string{itoa(g.Key.Arg)}
		for _, c := range e6Contestants {
			row = append(row, fmt.Sprintf("%d/%d", g.Sum(c.label+"viol"), g.Sum(c.label+"runs")))
		}
		return row
	},
}

// q5Variants are the A_nuc ablations exercised by Q5.
var q5Variants = []struct {
	name string
	ab   consensus.Ablation
}{
	{"A_nuc (full)", consensus.Ablation{}},
	{"A_nuc −distrust", consensus.Ablation{NoDistrust: true}},
	{"A_nuc −seen-gate", consensus.Ablation{NoSeenGate: true}},
	{"A_nuc −both", consensus.Ablation{NoDistrust: true, NoSeenGate: true}},
}

// q5Spec ablates A_nuc's machinery and reports which consensus property
// breaks under the contamination adversary, plus the freshness-barrier
// ablation's effect on the Σν+ transformer.
var q5Spec = &Spec{
	ID:    "Q5",
	Title: "Ablations: which defense prevents which failure",
	Claim: "§6.3's design discussion: the distrust rule blocks estimate " +
		"contamination; the seen-gate (quorum awareness, Lemma 6.24) gates " +
		"decisions on quorum visibility. Removing defenses must not be safe.",
	Columns: []string{"variant", "runs", "agreement violations", "undecided"},
	Configs: func(sc Scale) []Config {
		var cfgs []Config
		for i, v := range q5Variants {
			cfgs = append(cfgs, seedRange(Config{Label: v.name, Arg: i}, sc.Seeds*10)...)
		}
		return cfgs
	},
	Unit: func(sc Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		adv := e6Adversary
		adv.quorum = sigmaNuPlus
		ab := q5Variants[cfg.Arg].ab
		adv.hunt(&u, "", sc, func(props []int) model.Automaton {
			return consensus.NewANucAblated(props, ab)
		}, cfg.Seed, 20000)
		return u
	},
	Row: huntRow,
	Finalize: func(_ Scale, t *Table, gs []Group) {
		for _, g := range gs {
			if g.Key.Label == "A_nuc (full)" && (g.Sum("viol") > 0 || g.Sum("undec") > 0) {
				t.Pass = false
			}
		}
		t.Notes = append(t.Notes,
			"the full algorithm must show zero violations; ablated variants document the observed failure mode under this adversary (absence of violations for an ablation means this particular adversary does not exercise that defense)")
	},
}
