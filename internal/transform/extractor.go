// Package transform implements the paper's failure-detector transformation
// algorithms:
//
//   - SigmaNuExtractor — T_{D→Σν} (Fig. 2): extracts Σν from any failure
//     detector D that can be used to solve nonuniform consensus
//     (Theorem 5.4); run with a D that solves *uniform* consensus it
//     extracts Σ (Theorem 5.8).
//   - SigmaNuPlusTransformer — T_{Σν→Σν+} (Fig. 3): boosts Σν to Σν+ in
//     any environment (Theorem 6.7).
//   - ScratchSigma — the from-scratch Σ implementation for environments
//     with a correct majority (Theorem 7.1, IF direction).
//   - Stack — detector emitters stepping beside a consumer that reads
//     their output variables: NewComposed is the construction of Theorem
//     6.28 (T_{Σν→Σν+} beside A_nuc), NewOracleFree stacks the heartbeat Ω
//     and the from-scratch Σν+ under A_nuc, and NewFeed puts any emitter
//     under any consumer.
//
// All transformers expose their output_p variable (§2.9) via
// model.FDOutput, so drivers record the emulated history and internal/check
// validates it against the target detector's specification.
package transform

import (
	"fmt"

	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// TargetFactory builds the consensus algorithm A (which uses D) for a given
// assignment of proposals — the extractor needs A's initial configurations
// I_0 (all propose 0) and I_1 (all propose 1).
type TargetFactory func(proposals []int) model.Automaton

// SigmaNuExtractor is algorithm T_{D→Σν} (Fig. 2). Each process runs A_DAG
// on D, and uses a fresh subgraph G_p|u_p of its sample DAG to simulate
// schedules of A from I_0 and I_1; when it finds schedules S_0, S_1 in
// which it decides in both, it outputs participants(S_0) ∪ participants(S_1)
// as its Σν quorum and advances the freshness barrier u_p.
//
// The schedule search follows the canonical bounded strategy documented in
// package dag: the longest chain of G_p|u_p with oldest-message-first
// delivery.
// PathStrategy selects which paths of the fresh subgraph G_p|u_p the
// extractor simulates schedules along.
type PathStrategy int

const (
	// LongestChain (default) simulates along the longest chain of G_p|u_p —
	// in fair executions it revisits every live process many times, playing
	// the role of the limit path g^∞ of Lemma 4.8.
	LongestChain PathStrategy = iota
	// OwnChain simulates only along p's own samples. It is an ablation: a
	// solo schedule cannot make the target algorithm decide (consensus
	// needs messages from quorums of other processes), so the search never
	// succeeds, the freshness barrier never advances, and the emulation is
	// stuck at Π — demonstrating why the extraction must simulate
	// cross-process schedules.
	OwnChain
)

type SigmaNuExtractor struct {
	n           int
	target      TargetFactory
	a0, a1      model.Automaton
	searchEvery int
	strategy    PathStrategy
}

// NewSigmaNuExtractor returns the extractor for an n-process system.
// searchEvery throttles the (expensive) simulation search to every k-th
// step; 1 (or ≤0) searches on every step as in the paper.
func NewSigmaNuExtractor(n int, target TargetFactory, searchEvery int) *SigmaNuExtractor {
	return NewSigmaNuExtractorWithStrategy(n, target, searchEvery, LongestChain)
}

// NewSigmaNuExtractorWithStrategy selects the schedule-search path strategy
// (the Q6 ablation uses OwnChain).
func NewSigmaNuExtractorWithStrategy(n int, target TargetFactory, searchEvery int, strategy PathStrategy) *SigmaNuExtractor {
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("transform: invalid system size %d", n))
	}
	if searchEvery <= 0 {
		searchEvery = 1
	}
	zeros := make([]int, n)
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	return &SigmaNuExtractor{
		n:           n,
		target:      target,
		a0:          target(zeros),
		a1:          target(ones),
		searchEvery: searchEvery,
		strategy:    strategy,
	}
}

// Name implements model.Automaton.
func (a *SigmaNuExtractor) Name() string { return "T_{D→Σν}" }

// N implements model.Automaton.
func (a *SigmaNuExtractor) N() int { return a.n }

// extractorState is the local state of one T_{D→Σν} process.
type extractorState struct {
	b      dag.Builder
	u      dag.Key
	output model.ProcessSet // Σν-output_p
}

// CloneState implements model.State.
func (s *extractorState) CloneState() model.State {
	c := *s
	c.b = s.b.Clone()
	return &c
}

// EmulatedOutput implements model.FDOutput.
func (s *extractorState) EmulatedOutput() model.FDValue {
	return fd.QuorumValue{Quorum: s.output}
}

// SampleGraph implements dag.GraphHolder.
func (s *extractorState) SampleGraph() *dag.Graph { return s.b.G }

// InitState implements model.Automaton (Fig. 2 lines 1–4).
func (a *SigmaNuExtractor) InitState(p model.ProcessID) model.State {
	return &extractorState{
		b:      dag.NewBuilder(p),
		output: model.FullSet(a.n),
	}
}

// Step implements model.Automaton (Fig. 2 lines 5–19).
func (a *SigmaNuExtractor) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*extractorState)
	idx, sends := st.b.DoStep(m, d, model.FullSet(a.n))
	v := st.b.G.Node(idx).Key()
	if st.b.K == 1 {
		st.u = v // line 13
	}
	if st.b.K%a.searchEvery != 0 {
		return st, sends
	}
	// Lines 14–19: look for schedules S_0 ∈ Sch(G_p|u_p, I_0) and
	// S_1 ∈ Sch(G_p|u_p, I_1) in which p decides.
	ui := st.b.G.IndexOf(st.u)
	mask := st.b.G.Descendants(ui)
	var path []dag.Node
	switch a.strategy {
	case OwnChain:
		path = st.b.G.Nodes(st.b.G.OwnChainFrom(ui, mask, p))
	default:
		path = st.b.G.Nodes(st.b.G.LongestPathFrom(ui, mask))
	}
	parts0, _, ok0 := dag.DecidesAlong(a.a0, path, p)
	if !ok0 {
		return st, sends
	}
	parts1, _, ok1 := dag.DecidesAlong(a.a1, path, p)
	if !ok1 {
		return st, sends
	}
	st.output = parts0.Union(parts1) // line 18
	st.u = v                         // line 19
	return st, sends
}
