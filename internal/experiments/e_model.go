package experiments

import (
	"fmt"
	"math/rand"
	"reflect"

	"nuconsensus/internal/consensus"
	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
)

// restrictedScheduler confines a fair scheduler to a subset of processes,
// producing the partial runs merged in E9.
type restrictedScheduler struct {
	allowed model.ProcessSet
	inner   sim.Scheduler
}

func (s *restrictedScheduler) Next(t model.Time, alive model.ProcessSet, c *model.Configuration) (model.ProcessID, *model.Message) {
	return s.inner.Next(t, alive.Intersect(s.allowed), c)
}

// e9Spec exercises Lemma 2.2: a merging of two mergeable finite runs is
// itself a run (properties (1)–(5)) and preserves every participant's final
// state.
var e9Spec = &Spec{
	ID:    "E9",
	Title: "Run merging (partition argument substrate)",
	Claim: "Lemma 2.2: merging runs with disjoint participants yields a run of " +
		"the algorithm in which each participant's state is unchanged.",
	Columns: []string{"seed", "|S₀|", "|S₁|", "merged validates", "states preserved"},
	Configs: seedRows,
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		seed := cfg.Seed
		n := 4
		sideA := model.SetOf(0, 1)
		sideB := model.SetOf(2, 3)
		pattern := model.NewFailurePattern(n)
		hist := withOmega(sigma, pattern, 0, seed)
		run := func(aut model.Automaton, side model.ProcessSet, s int64) (*model.Run, error) {
			res, err := sim.Run(sim.Exec{
				Automaton:    aut,
				Pattern:      pattern,
				History:      hist,
				Scheduler:    &restrictedScheduler{allowed: side, inner: sim.NewFairScheduler(s, 0.8, 3)},
				MaxSteps:     30,
				KeepSchedule: true,
			})
			if err != nil {
				return nil, err
			}
			return &model.Run{Automaton: aut, Pattern: pattern, History: hist, Schedule: res.Schedule, Times: res.Times}, nil
		}
		// Proposals agree with the merged automaton on each side's
		// participants (the mergeability condition on initial states).
		a0 := consensus.NewMRMajority([]int{5, 5, 0, 0})
		a1 := consensus.NewMRMajority([]int{0, 0, 9, 9})
		merged := consensus.NewMRMajority([]int{5, 5, 9, 9})
		r0, err0 := run(a0, sideA, seed)
		r1, err1 := run(a1, sideB, seed+100)
		if err0 != nil || err1 != nil {
			u.failf("%v: %v %v", cfg, err0, err1)
			return u
		}
		m, err := model.MergeRuns(r0, r1, merged)
		validates := "no"
		preserved := "no"
		if err == nil {
			if err := m.Validate(); err == nil {
				validates = "yes"
				final, ferr := m.FinalStates()
				if ferr == nil {
					f0, _ := r0.FinalStates()
					f1, _ := r1.FinalStates()
					okAll := true
					sideA.ForEach(func(p model.ProcessID) {
						if !reflect.DeepEqual(final.States[p], f0.States[p]) {
							okAll = false
						}
					})
					sideB.ForEach(func(p model.ProcessID) {
						if !reflect.DeepEqual(final.States[p], f1.States[p]) {
							okAll = false
						}
					})
					if okAll {
						preserved = "yes"
					}
				}
			} else {
				u.Notef("seed=%d: validate: %v", seed, err)
			}
		} else {
			u.Notef("seed=%d: merge: %v", seed, err)
		}
		if validates != "yes" || preserved != "yes" {
			u.failf("%v: merged run validates=%s, states preserved=%s", cfg, validates, preserved)
		} else {
			u.OK = true
		}
		u.Cells = []string{fmt.Sprintf("%d", seed), itoa(len(r0.Schedule)),
			itoa(len(r1.Schedule)), validates, preserved}
		return u
	},
	Row: unitRow,
}

// seedRows is the grid of E9 and E10: one config per seed, each its own
// row (Arg keeps the seeds apart, since a row groups everything but the
// seed).
func seedRows(sc Scale) []Config {
	var cfgs []Config
	for s := 1; s <= sc.Seeds; s++ {
		cfgs = append(cfgs, Config{Arg: s, Seed: int64(s)})
	}
	return cfgs
}

// e10Spec exercises the §4 DAG lemmas on real A_DAG executions: sample
// times strictly increase along edges (Observation 4.4), same-process
// samples chain (Observation 4.2), fresh subgraphs contain only correct
// samples (Lemma 4.6), and long canonical paths visit every correct process
// many times (Lemma 4.8's finite shadow).
var e10Spec = &Spec{
	ID:    "E10",
	Title: "Sample-DAG structure (§4 lemmas)",
	Claim: "Observations 4.2/4.4 and Lemmas 4.6/4.8: edges respect sample times, " +
		"own samples chain, fresh subgraphs are correct-only, canonical paths " +
		"revisit all correct processes.",
	Columns: []string{"seed", "nodes", "edge-times ok", "own-chain ok", "fresh-correct ok", "path visits/correct"},
	Configs: seedRows,
	Unit: func(_ Scale, cfg Config, _ *rand.Rand) UnitResult {
		var u UnitResult
		seed := cfg.Seed
		n := 4
		pattern := model.PatternFromCrashes(n, map[model.ProcessID]model.Time{1: 40})
		samples := obs.NewCollector(obs.KindFDQuery)
		res, err := sim.Run(sim.Exec{
			Automaton: dag.NewADag(n),
			Pattern:   pattern,
			History:   fd.NewOmega(pattern, 60, seed),
			Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
			MaxSteps:  300,
			Bus:       obs.NewBus(nil, nil, samples),
		})
		if err != nil {
			u.failf("%v: %v", cfg, err)
			return u
		}
		p0 := model.ProcessID(0)
		g := res.Config.States[p0].(dag.GraphHolder).SampleGraph()

		// τ(v): the k-th sample of process q was taken at the time of q's
		// k-th recorded step.
		tau := make(map[dag.Key]model.Time)
		count := make(map[model.ProcessID]int)
		for _, s := range samples.Events() {
			count[s.P]++
			tau[dag.Key{P: s.P, K: count[s.P]}] = s.T
		}

		edgeOK, chainOK := true, true
		for v := 0; v < g.Len(); v++ {
			nv := g.Node(v)
			for q := 0; q < v; q++ {
				if !g.HasEdge(q, v) {
					continue
				}
				nq := g.Node(q)
				if tau[nq.Key()] >= tau[nv.Key()] {
					edgeOK = false
				}
			}
		}
		// Observation 4.2 on p0's own samples within its graph.
		var own []int
		for v := 0; v < g.Len(); v++ {
			if g.Node(v).P == p0 {
				own = append(own, v)
			}
		}
		for i := 1; i < len(own); i++ {
			if !g.HasEdge(own[i-1], own[i]) {
				chainOK = false
			}
		}
		// Lemma 4.6: the subgraph from a sample taken after all crashes
		// contains only correct samples.
		freshOK := true
		fresh := -1
		for v := g.Len() - 1; v >= 0; v-- {
			if g.Node(v).P == p0 && tau[g.Node(v).Key()] > pattern.MaxCrashTime() {
				fresh = v
			}
		}
		if fresh >= 0 {
			if !g.SamplesOf(g.Descendants(fresh)).SubsetOf(pattern.Correct()) {
				freshOK = false
			}
		}
		// Lemma 4.8 finite shadow: the canonical path visits each correct
		// process at least a few times.
		path := g.Nodes(g.LongestPathFrom(0, g.Descendants(0)))
		visits := make(map[model.ProcessID]int)
		for _, nd := range path {
			visits[nd.P]++
		}
		minVisits := 1 << 30
		pattern.Correct().ForEach(func(p model.ProcessID) {
			if visits[p] < minVisits {
				minVisits = visits[p]
			}
		})
		if !edgeOK || !chainOK || !freshOK || minVisits < 3 {
			u.failf("%v: edge times %v, own chain %v, fresh correct %v, path visits %d", cfg, edgeOK, chainOK, freshOK, minVisits)
		} else {
			u.OK = true
		}
		u.Cells = []string{fmt.Sprintf("%d", seed), itoa(g.Len()),
			fmt.Sprintf("%v", edgeOK), fmt.Sprintf("%v", chainOK),
			fmt.Sprintf("%v", freshOK), itoa(minVisits)}
		return u
	},
	Row: unitRow,
}
