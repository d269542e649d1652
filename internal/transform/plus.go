package transform

import (
	"fmt"

	"nuconsensus/internal/dag"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// SigmaNuPlusTransformer is algorithm T_{Σν→Σν+} (Fig. 3). Each process
// runs A_DAG sampling Σν; to pick its next Σν+ quorum it looks for a path
// g in the fresh subgraph G_p|u_p with trusted(g) ⊆ participants(g) and
// p ∈ participants(g), and outputs participants(g).
//
// Path search: the canonical longest chain of G_p|u_p and all of its
// suffixes, longest first. The existence proof (Lemma 6.1) uses exactly a
// fresh all-correct chain segment, which the longest chain's suffixes
// eventually contain.
type SigmaNuPlusTransformer struct {
	n int
}

// NewSigmaNuPlusTransformer returns the transformer for an n-process system.
func NewSigmaNuPlusTransformer(n int) *SigmaNuPlusTransformer {
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("transform: invalid system size %d", n))
	}
	return &SigmaNuPlusTransformer{n: n}
}

// Name implements model.Automaton.
func (a *SigmaNuPlusTransformer) Name() string { return "T_{Σν→Σν+}" }

// N implements model.Automaton.
func (a *SigmaNuPlusTransformer) N() int { return a.n }

// plusState is the local state of one T_{Σν→Σν+} process.
type plusState struct {
	b      dag.Builder
	u      dag.Key
	output model.ProcessSet // Σν+-output_p
}

// CloneState implements model.State.
func (s *plusState) CloneState() model.State {
	c := *s
	c.b = s.b.Clone()
	return &c
}

// EmulatedOutput implements model.FDOutput.
func (s *plusState) EmulatedOutput() model.FDValue {
	return fd.QuorumValue{Quorum: s.output}
}

// SampleGraph implements dag.GraphHolder.
func (s *plusState) SampleGraph() *dag.Graph { return s.b.G }

// InitState implements model.Automaton (Fig. 3 lines 1–4).
func (a *SigmaNuPlusTransformer) InitState(p model.ProcessID) model.State {
	return &plusState{
		b:      dag.NewBuilder(p),
		output: model.FullSet(a.n),
	}
}

// Step implements model.Automaton (Fig. 3 lines 5–17).
func (a *SigmaNuPlusTransformer) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*plusState)
	idx, sends := st.b.DoStep(m, d, model.FullSet(a.n))
	v := st.b.G.Node(idx).Key()
	if st.b.K == 1 {
		st.u = v // line 13
	}
	// Lines 14–17: find a path g in G_p|u_p with
	// trusted(g) ⊆ participants(g) and p ∈ participants(g).
	ui := st.b.G.IndexOf(st.u)
	mask := st.b.G.Descendants(ui)
	path := st.b.G.Nodes(st.b.G.LongestPathFrom(ui, mask))
	if parts, ok := satisfyingSuffix(path, p); ok {
		st.output = parts // line 16
		st.u = v          // line 17
	}
	return st, sends
}

// satisfyingSuffix scans the suffixes of path, longest first, for one with
// trusted(g) ⊆ participants(g) and p ∈ participants(g); it returns that
// suffix's participants. Suffix properties are accumulated right-to-left so
// the scan is linear.
func satisfyingSuffix(path []dag.Node, p model.ProcessID) (model.ProcessSet, bool) {
	n := len(path)
	participants := make([]model.ProcessSet, n+1)
	trusted := make([]model.ProcessSet, n+1)
	for i := n - 1; i >= 0; i-- {
		q, ok := fd.QuorumOf(path[i].D)
		if !ok {
			panic(fmt.Sprintf("transform: T_{Σν→Σν+} sampled non-quorum value %v", path[i].D))
		}
		participants[i] = participants[i+1].Add(path[i].P)
		trusted[i] = trusted[i+1].Union(q)
	}
	for i := 0; i < n; i++ {
		if participants[i].Has(p) && trusted[i].SubsetOf(participants[i]) {
			return participants[i], true
		}
	}
	return 0, false
}
