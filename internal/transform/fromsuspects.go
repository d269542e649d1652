package transform

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// OmegaFromSuspects transforms any eventually-perfect-style suspicion
// detector (◇P, e.g. hb.NewSuspector) into Ω: each process trusts the
// smallest process it does not currently suspect. Once suspicion converges
// to exactly the faulty set at every correct process (◇P's guarantee),
// every correct process trusts the same correct process forever — the Ω
// specification. It is the classic ◇P ⪰ Ω reduction, stated here as a
// transformation algorithm in the paper's §2.9 sense (it sends no
// messages; the emulation is purely local).
type OmegaFromSuspects struct {
	n int
}

// NewOmegaFromSuspects returns the ◇P→Ω transformation for n processes.
func NewOmegaFromSuspects(n int) *OmegaFromSuspects {
	if n < 2 || n > model.MaxProcesses {
		panic(fmt.Sprintf("transform: invalid system size %d", n))
	}
	return &OmegaFromSuspects{n: n}
}

// Name implements model.Automaton.
func (a *OmegaFromSuspects) Name() string { return "T_{◇P→Ω}" }

// N implements model.Automaton.
func (a *OmegaFromSuspects) N() int { return a.n }

// omegaFromSuspectsState holds the current leader estimate.
type omegaFromSuspectsState struct {
	output model.ProcessID
}

// CloneState implements model.State.
func (s *omegaFromSuspectsState) CloneState() model.State {
	c := *s
	return &c
}

// EmulatedOutput implements model.FDOutput.
func (s *omegaFromSuspectsState) EmulatedOutput() model.FDValue {
	return fd.LeaderValue{Leader: s.output}
}

// InitState implements model.Automaton.
func (a *OmegaFromSuspects) InitState(p model.ProcessID) model.State {
	return &omegaFromSuspectsState{output: p}
}

// Step implements model.Automaton.
func (a *OmegaFromSuspects) Step(p model.ProcessID, s model.State, _ *model.Message, d model.FDValue) (model.State, []model.Send) {
	st := s.(*omegaFromSuspectsState)
	sus, ok := fd.SuspectsOf(d)
	if !ok {
		panic(fmt.Sprintf("transform: T_{◇P→Ω} needs a suspects component, got %v", d))
	}
	leader := p // a process never suspects itself
	for q := 0; q < a.n; q++ {
		if pid := model.ProcessID(q); !sus.Has(pid) {
			leader = pid
			break
		}
	}
	st.output = leader
	return st, nil
}
