package dag

import (
	"fmt"

	"nuconsensus/internal/model"
)

// GraphPayload carries a snapshot of a process's sample DAG (Fig. 1
// line 11: "send G_p to every process"). The snapshot is immutable; the
// sender clones its graph once per step and all recipients share it.
type GraphPayload struct {
	G *Graph
}

// Kind implements model.Payload.
func (GraphPayload) Kind() string { return "DAG" }

// SupersedesOlder marks DAG snapshots as monotone: a process's graph only
// grows and every message carries all of it, so the newest pending snapshot
// from a sender subsumes the older ones (see model.SupersededPayload).
func (GraphPayload) SupersedesOlder() {}

// String implements model.Payload.
func (p GraphPayload) String() string { return fmt.Sprintf("DAG(%d nodes)", p.G.Len()) }

// Builder is the state core shared by every algorithm that embeds A_DAG
// (Fig. 1): the DAG-building loop of T_{D→Σν} (Fig. 2 lines 5–12) and
// T_{Σν→Σν+} (Fig. 3 lines 5–12) is A_DAG verbatim.
type Builder struct {
	P model.ProcessID
	K int // k_p: number of samples taken
	G *Graph
}

// NewBuilder returns the initial builder state for process p (Fig. 1
// lines 1–3).
func NewBuilder(p model.ProcessID) Builder {
	return Builder{P: p, G: NewGraph()}
}

// Clone deep-copies the builder.
func (b Builder) Clone() Builder {
	b.G = b.G.Clone()
	return b
}

// DoStep performs one iteration of the A_DAG loop (Fig. 1 lines 5–12):
// merge the received DAG (if any), take sample d as node (p, d, k_p+1) with
// edges from every other node, and send the updated DAG to every process.
// It returns the new node's index and the snapshot sends.
func (b *Builder) DoStep(m *model.Message, d model.FDValue, all model.ProcessSet) (int, []model.Send) {
	if m != nil {
		if pl, ok := m.Payload.(GraphPayload); ok {
			b.G.Union(pl.G)
		}
	}
	b.K++
	idx := b.G.AddSample(b.P, d, b.K)
	snap := GraphPayload{G: b.G.Clone()}
	return idx, model.Broadcast(all, snap)
}

// ADag is algorithm A_DAG (Fig. 1) as a standalone automaton, used to test
// the §4 lemmas about sample DAGs directly.
type ADag struct {
	n int
}

// NewADag returns the A_DAG automaton for an n-process system.
func NewADag(n int) *ADag {
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("dag: invalid system size %d", n))
	}
	return &ADag{n: n}
}

// Name implements model.Automaton.
func (a *ADag) Name() string { return "A_DAG" }

// N implements model.Automaton.
func (a *ADag) N() int { return a.n }

// adagState wraps a Builder as a model.State.
type adagState struct {
	b Builder
}

// CloneState implements model.State.
func (s *adagState) CloneState() model.State { return &adagState{b: s.b.Clone()} }

// SampleGraph exposes the DAG for inspection.
func (s *adagState) SampleGraph() *Graph { return s.b.G }

// GraphHolder is implemented by states that carry a sample DAG.
type GraphHolder interface {
	SampleGraph() *Graph
}

// InitState implements model.Automaton.
func (a *ADag) InitState(p model.ProcessID) model.State {
	return &adagState{b: NewBuilder(p)}
}

// Step implements model.Automaton.
func (a *ADag) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*adagState)
	_, sends := st.b.DoStep(m, d, model.FullSet(a.n))
	return st, sends
}
