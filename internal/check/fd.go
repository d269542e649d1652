// Package check verifies the paper's failure-detector and consensus
// properties on finite execution records. Eventual properties
// ("∃t ∀t' > t: …") are checked on the suffix of the record after a caller
// supplied horizon; safety properties are checked on the whole record.
//
// The same checkers validate native failure-detector histories and the
// emulated detectors produced by the transformation algorithms of
// internal/transform — this is what makes the "transforms D to D'"
// statements of §2.9 executable.
package check

import (
	"fmt"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// QuorumSample is a failure-detector sample projected to its quorum
// component.
type QuorumSample struct {
	P model.ProcessID
	T model.Time
	Q model.ProcessSet
}

// QuorumSamples projects samples to their quorum components. Samples with
// no quorum component are reported as an error, since silently dropping
// them would weaken the checks.
func QuorumSamples(samples []Sample) ([]QuorumSample, error) {
	out := make([]QuorumSample, 0, len(samples))
	for _, s := range samples {
		q, ok := fd.QuorumOf(s.Val)
		if !ok {
			return nil, fmt.Errorf("check: sample %v at (%s,%d) has no quorum component", s.Val, s.P, s.T)
		}
		out = append(out, QuorumSample{P: s.P, T: s.T, Q: q})
	}
	return out, nil
}

// LeaderSample is a failure-detector sample projected to its Ω component.
type LeaderSample struct {
	P model.ProcessID
	T model.Time
	L model.ProcessID
}

// LeaderSamples projects samples to their leader components.
func LeaderSamples(samples []Sample) ([]LeaderSample, error) {
	out := make([]LeaderSample, 0, len(samples))
	for _, s := range samples {
		l, ok := fd.LeaderOf(s.Val)
		if !ok {
			return nil, fmt.Errorf("check: sample %v at (%s,%d) has no leader component", s.Val, s.P, s.T)
		}
		out = append(out, LeaderSample{P: s.P, T: s.T, L: l})
	}
	return out, nil
}

// Omega checks the Ω specification (§3.1) on a finite record: after the
// horizon, every sample at a correct process must be the same correct
// process. An error names the first offending sample.
func Omega(samples []LeaderSample, f *model.FailurePattern, horizon model.Time) error {
	correct := f.Correct()
	if correct.IsEmpty() {
		return nil // Ω's guarantee is conditional on correct(F) ≠ ∅
	}
	leader := model.NoProcess
	sawSuffix := false
	for _, s := range samples {
		if s.T <= horizon || !correct.Has(s.P) {
			continue
		}
		sawSuffix = true
		if !correct.Has(s.L) {
			return fmt.Errorf("check: Ω output faulty process %s at (%s,%d) after horizon %d", s.L, s.P, s.T, horizon)
		}
		if leader == model.NoProcess {
			leader = s.L
		} else if leader != s.L {
			return fmt.Errorf("check: Ω output %s at (%s,%d) but %s earlier after horizon %d", s.L, s.P, s.T, leader, horizon)
		}
	}
	if !sawSuffix {
		return fmt.Errorf("check: no Ω samples at correct processes after horizon %d", horizon)
	}
	return nil
}

// Intersection checks Σ's (uniform) intersection property (§3.2): every two
// quorums, at any processes and times, intersect.
func Intersection(samples []QuorumSample) error {
	for i := range samples {
		for j := i; j < len(samples); j++ {
			if !samples[i].Q.Intersects(samples[j].Q) {
				return fmt.Errorf("check: quorums %s at (%s,%d) and %s at (%s,%d) are disjoint",
					samples[i].Q, samples[i].P, samples[i].T,
					samples[j].Q, samples[j].P, samples[j].T)
			}
		}
	}
	return nil
}

// NonuniformIntersection checks Σν's intersection property (§3.3): every
// two quorums output at correct processes intersect.
func NonuniformIntersection(samples []QuorumSample, f *model.FailurePattern) error {
	correct := f.Correct()
	var cs []QuorumSample
	for _, s := range samples {
		if correct.Has(s.P) {
			cs = append(cs, s)
		}
	}
	if err := Intersection(cs); err != nil {
		return fmt.Errorf("nonuniform %w", err)
	}
	return nil
}

// Completeness checks the completeness property shared by Σ, Σν and Σν+:
// after the horizon, every quorum output at a correct process contains only
// correct processes.
func Completeness(samples []QuorumSample, f *model.FailurePattern, horizon model.Time) error {
	correct := f.Correct()
	sawSuffix := false
	for _, s := range samples {
		if s.T <= horizon || !correct.Has(s.P) {
			continue
		}
		sawSuffix = true
		if !s.Q.SubsetOf(correct) {
			return fmt.Errorf("check: quorum %s at (%s,%d) contains faulty processes after horizon %d",
				s.Q, s.P, s.T, horizon)
		}
	}
	if !correct.IsEmpty() && !sawSuffix {
		return fmt.Errorf("check: no quorum samples at correct processes after horizon %d", horizon)
	}
	return nil
}

// SelfInclusion checks Σν+'s self-inclusion property (§6.1): p ∈ H(p, t)
// for every sample.
func SelfInclusion(samples []QuorumSample) error {
	for _, s := range samples {
		if !s.Q.Has(s.P) {
			return fmt.Errorf("check: quorum %s at (%s,%d) does not contain its owner", s.Q, s.P, s.T)
		}
	}
	return nil
}

// ConditionalNonintersection checks Σν+'s conditional nonintersection
// property (§6.1): any quorum disjoint from some quorum of a correct
// process contains only faulty processes.
func ConditionalNonintersection(samples []QuorumSample, f *model.FailurePattern) error {
	correct := f.Correct()
	faulty := f.Faulty()
	for _, s := range samples {
		if !correct.Has(s.P) {
			continue
		}
		for _, x := range samples {
			if x.Q.Intersects(s.Q) {
				continue
			}
			if !x.Q.SubsetOf(faulty) {
				return fmt.Errorf("check: quorum %s at (%s,%d) is disjoint from correct quorum %s at (%s,%d) yet contains correct processes",
					x.Q, x.P, x.T, s.Q, s.P, s.T)
			}
		}
	}
	return nil
}

// Sigma checks the full Σ specification on a finite record.
func Sigma(samples []Sample, f *model.FailurePattern, horizon model.Time) error {
	qs, err := QuorumSamples(samples)
	if err != nil {
		return err
	}
	if err := Intersection(qs); err != nil {
		return err
	}
	return Completeness(qs, f, horizon)
}

// SigmaNu checks the full Σν specification on a finite record.
func SigmaNu(samples []Sample, f *model.FailurePattern, horizon model.Time) error {
	qs, err := QuorumSamples(samples)
	if err != nil {
		return err
	}
	if err := NonuniformIntersection(qs, f); err != nil {
		return err
	}
	return Completeness(qs, f, horizon)
}

// SigmaNuPlus checks the full Σν+ specification on a finite record.
func SigmaNuPlus(samples []Sample, f *model.FailurePattern, horizon model.Time) error {
	qs, err := QuorumSamples(samples)
	if err != nil {
		return err
	}
	if err := NonuniformIntersection(qs, f); err != nil {
		return err
	}
	if err := SelfInclusion(qs); err != nil {
		return err
	}
	if err := ConditionalNonintersection(qs, f); err != nil {
		return err
	}
	return Completeness(qs, f, horizon)
}

// OmegaOutputs checks the Ω specification over recorded output samples,
// projecting each value to its leader component (bare LeaderValues or the
// first component of pairs).
func OmegaOutputs(samples []Sample, f *model.FailurePattern, horizon model.Time) error {
	ls, err := LeaderSamples(samples)
	if err != nil {
		return err
	}
	return Omega(ls, f, horizon)
}

// LastCompletenessViolation returns the last time a correct process's
// recorded quorum contained a faulty process, or -1 if that never happens.
// It is the canonical horizon for checking the completeness property of
// emulated quorum detectors: Σ-family detectors may keep changing their
// quorums forever (the paper notes Σ "does not require that the quorums of
// correct processes eventually converge"), so the meaningful finite-trace
// statement is "violations cease, with a margin before the end of the
// record". Callers must separately require the returned horizon to fall
// well before the last sample.
func LastCompletenessViolation(samples []Sample, f *model.FailurePattern) (model.Time, error) {
	qs, err := QuorumSamples(samples)
	if err != nil {
		return 0, err
	}
	correct := f.Correct()
	last := model.Time(-1)
	for _, s := range qs {
		if correct.Has(s.P) && !s.Q.SubsetOf(correct) && s.T > last {
			last = s.T
		}
	}
	return last, nil
}

// StabilizationTime returns the time of the last change in any correct
// process's recorded value (0 if nothing ever changed). Tests use it to
// place the horizon for eventual-property checks on emulated detectors,
// whose stabilization time is not known a priori; pairing it with an upper
// bound on how late stabilization may happen keeps the suffix nonempty.
func StabilizationTime(samples []Sample, f *model.FailurePattern) model.Time {
	correct := f.Correct()
	last := make(map[model.ProcessID]string)
	var stab model.Time
	for _, s := range samples {
		if !correct.Has(s.P) {
			continue
		}
		cur := s.Val.String()
		if prev, ok := last[s.P]; ok && prev == cur {
			continue
		}
		if _, ok := last[s.P]; ok {
			stab = s.T
		}
		last[s.P] = cur
	}
	return stab
}

// EventuallyPerfect checks the ◇P specification on recorded suspect-set
// outputs: after the horizon, every sample at a correct process suspects
// exactly the faulty processes — strong completeness (every faulty process
// is permanently suspected) plus eventual strong accuracy (no correct
// process is suspected).
func EventuallyPerfect(samples []Sample, f *model.FailurePattern, horizon model.Time) error {
	correct := f.Correct()
	faulty := f.Faulty()
	sawSuffix := false
	for _, s := range samples {
		if s.T <= horizon || !correct.Has(s.P) {
			continue
		}
		sus, ok := fd.SuspectsOf(s.Val)
		if !ok {
			return fmt.Errorf("check: sample %v at (%s,%d) has no suspects component", s.Val, s.P, s.T)
		}
		sawSuffix = true
		if !faulty.SubsetOf(sus) {
			return fmt.Errorf("check: ◇P misses faulty processes at (%s,%d): suspects %s, faulty %s",
				s.P, s.T, sus, faulty)
		}
		if sus.Intersects(correct) {
			return fmt.Errorf("check: ◇P suspects correct processes at (%s,%d): %s",
				s.P, s.T, sus.Intersect(correct))
		}
	}
	if !correct.IsEmpty() && !sawSuffix {
		return fmt.Errorf("check: no ◇P samples at correct processes after horizon %d", horizon)
	}
	return nil
}
