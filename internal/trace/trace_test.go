package trace

import (
	"strings"
	"testing"

	"nuconsensus/internal/model"
)

type pl struct{ k string }

func (p pl) Kind() string   { return p.k }
func (p pl) String() string { return p.k }

type val struct{}

func (val) String() string { return "v" }

func TestRecorderCounters(t *testing.T) {
	r := &Recorder{RecordSamples: true}
	m := &model.Message{From: 1, To: 0, Payload: pl{"X"}}
	r.OnStep(1, 0, nil, val{}, 2)
	r.OnStep(2, 0, m, val{}, 0)
	if r.StepCount != 2 || r.MessagesSent != 2 || r.MessagesRecvd != 1 {
		t.Errorf("counters: steps=%d sent=%d recvd=%d", r.StepCount, r.MessagesSent, r.MessagesRecvd)
	}
	if len(r.Samples) != 2 {
		t.Errorf("samples = %d", len(r.Samples))
	}
	if !strings.Contains(r.Summary(), "steps=2") {
		t.Errorf("Summary() = %q", r.Summary())
	}
}

func TestRecorderDropsSamplesWhenDisabled(t *testing.T) {
	r := &Recorder{} // zero value: RecordSamples off
	m := &model.Message{From: 1, To: 0, Payload: pl{"X"}}
	r.OnStep(1, 0, nil, val{}, 2)
	r.OnStep(2, 0, m, val{}, 0)
	r.OnOutput(3, 0, val{})
	if len(r.Samples) != 0 || len(r.Outputs) != 0 {
		t.Errorf("retained records with the knob off: samples=%d outputs=%d",
			len(r.Samples), len(r.Outputs))
	}
	if r.StepCount != 2 || r.MessagesSent != 2 || r.MessagesRecvd != 1 {
		t.Errorf("counters must survive the knob: steps=%d sent=%d recvd=%d",
			r.StepCount, r.MessagesSent, r.MessagesRecvd)
	}
	if r.DroppedSamples != 2 || r.DroppedOutputs != 1 {
		t.Errorf("drop counts: samples=%d outputs=%d", r.DroppedSamples, r.DroppedOutputs)
	}
	if s := r.Summary(); !strings.Contains(s, "dropped=3(samples=2,outputs=1)") {
		t.Errorf("Summary() = %q, want dropped=3(samples=2,outputs=1)", s)
	}
}

func TestRecorderDecisions(t *testing.T) {
	r := &Recorder{}
	r.OnDecision(5, 1, 7)
	r.OnDecision(9, 1, 7) // duplicate: keep first
	r.OnDecision(6, 2, 8)
	times := r.DecisionTimes()
	if times[1] != 5 || times[2] != 6 {
		t.Errorf("DecisionTimes = %v", times)
	}
	vals := r.DecidedValues()
	if vals[1] != 7 || vals[2] != 8 {
		t.Errorf("DecidedValues = %v", vals)
	}
}

func TestRecorderOutputsAndKinds(t *testing.T) {
	r := &Recorder{RecordSamples: true}
	r.OnOutput(3, 0, val{})
	r.OnOutput(4, 0, nil) // nil outputs are skipped
	if len(r.Outputs) != 1 {
		t.Errorf("Outputs = %d", len(r.Outputs))
	}
	r.OnSend(pl{"A"})
	r.OnSend(pl{"A"})
	r.OnSend(pl{"B"})
	if r.SentKinds["A"] != 2 || r.SentKinds["B"] != 1 {
		t.Errorf("SentKinds = %v", r.SentKinds)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.OnStep(1, 0, nil, val{}, 1)
	r.OnDecision(1, 0, 1)
	r.OnOutput(1, 0, val{})
	r.OnSend(pl{"A"})
}
