package experiments

import (
	"fmt"
	"math/rand"

	"nuconsensus/internal/check"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/transform"
)

// PartitionOutcome is the result of staging the Theorem 7.1 (ONLY-IF)
// partition argument against one candidate transformation algorithm.
type PartitionOutcome struct {
	Candidate string
	N         int
	T         int
	AQuorum   model.ProcessSet // A' ⊆ A output in run R (and R′, by indistinguishability)
	BQuorum   model.ProcessSet // B' ⊆ B output in run R′
	Tau       model.Time       // time τ at which A' was output in R
	Disjoint  bool             // A' ∩ B' = ∅ — the Σ intersection violation
	Err       error
}

// RunPartition stages the two runs R and R′ of Theorem 7.1's ONLY-IF proof
// against a candidate algorithm that purports to transform (Ω, Σν) to Σ in
// E_t with t ≥ n/2:
//
//	R:  all of B crashes at time 0; every process's (Ω, Σν) module outputs
//	    (min A, A) in A and (min B, B) in B — a legal Σν history because
//	    quorums at *correct* processes (all in A) intersect. Completeness
//	    forces the candidate to eventually output some A' ⊆ A at a ∈ A, at
//	    a time τ.
//	R′: identical prefix for A (B's messages delayed past τ; B takes no
//	    steps before τ), then A crashes at τ+1 and B runs alone. A cannot
//	    distinguish R′ from R through time τ, so a outputs the same A' at
//	    τ; completeness then forces some B' ⊆ B at b ∈ B. A' ∩ B' = ∅
//	    violates Σ's intersection — no candidate can win.
func RunPartition(name string, candidate model.Automaton, n, tFaults int) PartitionOutcome {
	out := PartitionOutcome{Candidate: name, N: n, T: tFaults}
	if n%2 != 0 || tFaults < n/2 {
		out.Err = fmt.Errorf("experiments: partition needs even n and t ≥ n/2 (got n=%d t=%d)", n, tFaults)
		return out
	}
	sideA := model.FullSet(n / 2)
	sideB := model.FullSet(n).Minus(sideA)
	a, b := sideA.Min(), sideB.Min()

	// The hand-crafted (Ω, Σν) history of the proof, identical in R and R′.
	vals := make([]model.FDValue, n)
	for p := 0; p < n; p++ {
		side, leader := sideA, a
		if sideB.Has(model.ProcessID(p)) {
			side, leader = sideB, b
		}
		vals[p] = fd.PairValue{
			First:  fd.LeaderValue{Leader: leader},
			Second: fd.QuorumValue{Quorum: side},
		}
	}
	hist := fd.ConstPerProcess{Values: vals}

	// Run R: B crashes before taking a step.
	patternR := model.NewFailurePattern(n)
	sideB.ForEach(func(p model.ProcessID) { patternR.SetCrash(p, 0) })
	stopAtSubsetOutput := func(p model.ProcessID, side model.ProcessSet) func(*model.Configuration, model.Time) bool {
		return func(c *model.Configuration, _ model.Time) bool {
			o, ok := c.States[p].(model.FDOutput)
			if !ok {
				return false
			}
			q, ok := fd.QuorumOf(o.EmulatedOutput())
			return ok && q.SubsetOf(side)
		}
	}
	resR, err := sim.Run(sim.Exec{
		Automaton:    candidate,
		Pattern:      patternR,
		History:      hist,
		Scheduler:    sim.NewFairScheduler(1, 0.9, 3),
		MaxSteps:     4000,
		StopWhen:     stopAtSubsetOutput(a, sideA),
		KeepSchedule: true,
	})
	if err != nil {
		out.Err = fmt.Errorf("run R: %w", err)
		return out
	}
	if !resR.Stopped {
		out.Err = fmt.Errorf("run R: candidate never output a quorum ⊆ A at %s — completeness of Σ violated already", a)
		return out
	}
	qa, _ := fd.QuorumOf(resR.Config.States[a].(model.FDOutput).EmulatedOutput())
	out.AQuorum = qa
	out.Tau = resR.Ticks

	// Run R′: replay R's schedule (A-only steps; B silent), then crash A at
	// τ+1 and let B run alone.
	script := make([]sim.Choice, len(resR.Schedule))
	for i, e := range resR.Schedule {
		script[i] = sim.Choice{P: e.P, Deliver: e.M != nil}
	}
	patternRp := model.NewFailurePattern(n)
	sideA.ForEach(func(p model.ProcessID) { patternRp.SetCrash(p, out.Tau+1) })
	resRp, err := sim.Run(sim.Exec{
		Automaton: candidate,
		Pattern:   patternRp,
		History:   hist,
		Scheduler: &sim.ScriptedScheduler{Script: script, Fallback: sim.NewFairScheduler(2, 0.9, 3)},
		MaxSteps:  8000,
		StopWhen:  stopAtSubsetOutput(b, sideB),
	})
	if err != nil {
		out.Err = fmt.Errorf("run R′: %w", err)
		return out
	}
	if !resRp.Stopped {
		out.Err = fmt.Errorf("run R′: candidate never output a quorum ⊆ B at %s — completeness of Σ violated already", b)
		return out
	}
	qb, _ := fd.QuorumOf(resRp.Config.States[b].(model.FDOutput).EmulatedOutput())
	out.BQuorum = qb
	out.Disjoint = !qa.Intersects(qb)
	return out
}

// e7Candidates are the two natural (Ω, Σν)→Σ candidates E7 defeats.
var e7Candidates = []struct {
	name string
	aut  func(n, t int) model.Automaton
}{
	{"(n−t)-threshold", func(n, t int) model.Automaton { return transform.NewThresholdQuorum(n, t) }},
	{"Σν-passthrough", func(n, t int) model.Automaton { return transform.NewPassthroughQuorum(n) }},
}

// e7Spec exercises Theorem 7.1 (ONLY-IF): for t ≥ n/2 there is no algorithm
// transforming (Ω, Σν) to Σ. We run the proof's partition argument against
// two natural candidates and exhibit, for each, a pair of runs whose
// emitted quorums violate Σ's intersection property.
var e7Spec = &Spec{
	ID:    "E7",
	Title: "Partition argument: (Ω, Σν) cannot be transformed to Σ when t ≥ n/2",
	Claim: "Theorem 7.1 (ONLY-IF): runs R and R′ force any candidate to output " +
		"disjoint quorums A' ⊆ A and B' ⊆ B, violating Σ's intersection.",
	Columns: []string{"candidate", "n", "t", "A' (run R, at τ)", "B' (run R′)", "disjoint?"},
	Configs: func(_ Scale) []Config {
		var cfgs []Config
		for _, n := range []int{4, 6} {
			for i := range e7Candidates {
				cfgs = append(cfgs, Config{Label: e7Candidates[i].name, Arg: i, N: n, F: n / 2})
			}
		}
		return cfgs
	},
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		n, tf := cfg.N, cfg.F
		c := e7Candidates[cfg.Arg]
		o := RunPartition(c.name, c.aut(n, tf), n, tf)
		if o.Err != nil {
			u.failf("%v: %v", cfg, o.Err)
			return u
		}
		if o.Disjoint {
			u.OK = true
		} else {
			u.failf("%v: A' = %s and B' = %s intersect", cfg, o.AQuorum, o.BQuorum)
		}
		u.Cells = []string{c.name, itoa(n), itoa(tf),
			fmt.Sprintf("%s @t=%d", o.AQuorum, o.Tau), o.BQuorum.String(),
			fmt.Sprintf("%v", o.Disjoint)}
		return u
	},
	Row: unitRow,
	Finalize: func(_ Scale, t *Table, _ []Group) {
		t.Notes = append(t.Notes,
			"every candidate that satisfies completeness in both runs is forced into the intersection violation; a candidate that avoided it would have to fail completeness instead")
	},
}

// e8Spec exercises Theorem 7.1 (IF): with t < n/2, Σ is implementable from
// scratch — no failure detector at all.
var e8Spec = &Spec{
	ID:    "E8",
	Title: "From-scratch Σ in majority-correct environments",
	Claim: "Theorem 7.1 (IF): for t < n/2, the (n−t)-threshold round algorithm " +
		"implements Σ without any failure detector.",
	Columns: []string{"n", "t", "f", "runs", "ok"},
	Configs: func(sc Scale) []Config {
		return grid(Config{}, sc.Seeds, []int{3, 5, 7, 9}, func(n int) []int { return []int{0, (n - 1) / 2} })
	},
	Unit: func(_ Scale, cfg Config, rng *rand.Rand) UnitResult {
		return fdRun{aut: transform.NewScratchSigma(cfg.N, (cfg.N-1)/2), pattern: randomPattern(cfg.N, cfg.F, 50, rng),
			hist: fd.Null, steps: 800, spec: check.Sigma}.unit(cfg)
	},
	Row: func(_ Scale, g Group) []string {
		return []string{itoa(g.Key.N), itoa((g.Key.N - 1) / 2), itoa(g.Key.F),
			itoa(g.Runs()), itoa(g.OKs())}
	},
}
