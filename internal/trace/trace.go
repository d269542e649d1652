// Package trace records what happened during a simulated or live execution:
// step counts, failure-detector samples, emulated failure-detector outputs,
// decisions, and message counters. Checkers in internal/check consume these
// records to verify the paper's properties on finite executions.
package trace

import (
	"fmt"
	"strings"

	"nuconsensus/internal/model"
)

// Sample records one failure-detector query: process p saw value Val at
// time T. For emulated detectors, Sample also records the values of the
// output_p variables over time (§2.9).
type Sample struct {
	P   model.ProcessID
	T   model.Time
	Val model.FDValue
}

// Decision records that process P decided Val at time T.
type Decision struct {
	P   model.ProcessID
	T   model.Time
	Val int
}

// Recorder accumulates execution records. The zero value is ready to use.
// RecordSamples controls whether failure-detector samples and emulated
// outputs are kept (they are the bulky part; counters are always
// maintained). Callers that read Samples or Outputs must set RecordSamples
// — with it off, samples are counted in DroppedSamples/DroppedOutputs
// instead of retained, which keeps long experiment sweeps from accumulating
// per-step garbage.
type Recorder struct {
	RecordSamples bool

	Samples   []Sample // FD values seen in steps (RecordSamples only)
	Outputs   []Sample // emulated FD output_p values (RecordSamples only)
	Decisions []Decision

	StepCount     int
	MessagesSent  int
	MessagesRecvd int
	SentKinds     map[string]int

	DroppedSamples int // FD samples skipped because RecordSamples is off
	DroppedOutputs int // output samples skipped because RecordSamples is off
}

// OnSend counts one sent payload by kind.
func (r *Recorder) OnSend(pl model.Payload) {
	if r == nil {
		return
	}
	if r.SentKinds == nil {
		r.SentKinds = make(map[string]int)
	}
	r.SentKinds[pl.Kind()]++
}

// OnStep records one executed step.
func (r *Recorder) OnStep(t model.Time, p model.ProcessID, m *model.Message, d model.FDValue, sent int) {
	if r == nil {
		return
	}
	r.StepCount++
	r.MessagesSent += sent
	if m != nil {
		r.MessagesRecvd++
	}
	if d != nil {
		r.OnFDSample(t, p, d)
	}
}

// OnFDSample records one failure-detector sample. With RecordSamples off
// the sample is dropped (and counted), not retained.
func (r *Recorder) OnFDSample(t model.Time, p model.ProcessID, v model.FDValue) {
	if r == nil || v == nil {
		return
	}
	if !r.RecordSamples {
		r.DroppedSamples++
		return
	}
	r.Samples = append(r.Samples, Sample{P: p, T: t, Val: v})
}

// OnOutput records the value of an emulated failure-detector output
// variable after a step.
func (r *Recorder) OnOutput(t model.Time, p model.ProcessID, v model.FDValue) {
	if r == nil || v == nil {
		return
	}
	if !r.RecordSamples {
		r.DroppedOutputs++
		return
	}
	r.Outputs = append(r.Outputs, Sample{P: p, T: t, Val: v})
}

// OnDecision records a decision event.
func (r *Recorder) OnDecision(t model.Time, p model.ProcessID, v int) {
	if r == nil {
		return
	}
	r.Decisions = append(r.Decisions, Decision{P: p, T: t, Val: v})
}

// DecisionTimes returns, per process, the time of its (first) decision.
func (r *Recorder) DecisionTimes() map[model.ProcessID]model.Time {
	out := make(map[model.ProcessID]model.Time, len(r.Decisions))
	for _, d := range r.Decisions {
		if _, ok := out[d.P]; !ok {
			out[d.P] = d.T
		}
	}
	return out
}

// DecidedValues returns, per process, the value it (first) decided.
func (r *Recorder) DecidedValues() map[model.ProcessID]int {
	out := make(map[model.ProcessID]int, len(r.Decisions))
	for _, d := range r.Decisions {
		if _, ok := out[d.P]; !ok {
			out[d.P] = d.Val
		}
	}
	return out
}

// Summary renders a one-line summary for CLI tools, including how many
// records were dropped because RecordSamples is off.
func (r *Recorder) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d sent=%d recvd=%d decisions=%d",
		r.StepCount, r.MessagesSent, r.MessagesRecvd, len(r.Decisions))
	if n := r.DroppedSamples + r.DroppedOutputs; n > 0 {
		fmt.Fprintf(&b, " dropped=%d(samples=%d,outputs=%d)",
			n, r.DroppedSamples, r.DroppedOutputs)
	}
	return b.String()
}
