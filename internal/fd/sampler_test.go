package fd

import (
	"fmt"
	"testing"

	"nuconsensus/internal/model"
)

func TestSamplerEpochAdvancesOnChange(t *testing.T) {
	// A history that changes value every tick.
	h := HistoryFunc(func(p model.ProcessID, t model.Time) model.FDValue {
		return LeaderValue{Leader: model.ProcessID(int(t) % 2)}
	})
	s := NewSampler(h)
	v0 := s.Output(0, 0).(Sample)
	v1 := s.Output(0, 1).(Sample)
	v2 := s.Output(0, 2).(Sample)
	if v0.Epoch != 0 || v1.Epoch != 1 || v2.Epoch != 2 {
		t.Fatalf("epochs = %d,%d,%d want 0,1,2", v0.Epoch, v1.Epoch, v2.Epoch)
	}
}

func TestSamplerStableValueKeepsEpochAndBox(t *testing.T) {
	h := ConstPerProcess{Values: []model.FDValue{LeaderValue{Leader: 0}}}
	s := NewSampler(h)
	a := s.Output(0, 0)
	b := s.Output(0, 5)
	if a != b {
		t.Fatalf("stable value must reuse the boxed sample: %v vs %v", a, b)
	}
	if a.(Sample).Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", a.(Sample).Epoch)
	}
}

func TestSamplerUnwrapsThroughExtractors(t *testing.T) {
	pat := model.NewFailurePattern(3)
	s := NewSampler(PairHistory{
		First:  NewOmega(pat, 0, 1),
		Second: NewSigmaNuPlus(pat, 0, 1),
	})
	d := s.Output(0, 10)
	if _, ok := LeaderOf(d); !ok {
		t.Error("LeaderOf must unwrap a Sample")
	}
	if _, ok := QuorumOf(d); !ok {
		t.Error("QuorumOf must unwrap a Sample")
	}
	if _, ok := SuspectsOf(d); ok {
		t.Error("SuspectsOf found a suspect set in an Ω/Σν+ pair")
	}
}

func TestSamplerSubscribeFansOutEpochChanges(t *testing.T) {
	h := HistoryFunc(func(p model.ProcessID, t model.Time) model.FDValue {
		return LeaderValue{Leader: model.ProcessID(int(t) % 2)}
	})
	s := NewSampler(h)
	var got []Sample
	s.Subscribe(func(p model.ProcessID, sm Sample) {
		if p == 0 {
			got = append(got, sm)
		}
	})
	s.Output(0, 0)
	s.Output(0, 0) // same value: no notification
	s.Output(0, 1) // change: notification
	if len(got) != 2 || got[0].Epoch != 0 || got[1].Epoch != 1 {
		t.Fatalf("notifications = %v", got)
	}
}

func TestSamplerReplayStable(t *testing.T) {
	// Re-querying the same (p, t) sequence yields the same sample strings
	// — the property replay validation relies on.
	pat := model.NewFailurePattern(3)
	mk := func() *Sampler {
		return NewSampler(PairHistory{
			First:  NewOmega(pat, 20, DeriveSeed("omega", 7)),
			Second: NewSigmaNuPlus(pat, 20, DeriveSeed("sigmanu+", 7)),
		})
	}
	a, b := mk(), mk()
	for t1 := model.Time(0); t1 < 40; t1++ {
		for p := model.ProcessID(0); p < 3; p++ {
			if x, y := a.Output(p, t1).String(), b.Output(p, t1).String(); x != y {
				t.Fatalf("replay diverged at (p%d, t%d): %s vs %s", p, t1, x, y)
			}
		}
	}
}

func TestDeriveSeedDecorrelates(t *testing.T) {
	a := DeriveSeed("omega", 42)
	b := DeriveSeed("sigmanu+", 42)
	if a == b {
		t.Fatal("sub-stream seeds must differ")
	}
	if a != DeriveSeed("omega", 42) {
		t.Fatal("DeriveSeed must be deterministic")
	}
	if DeriveSeed("omega", 1) == DeriveSeed("omega", 2) {
		t.Fatal("different parent seeds must derive different sub-seeds")
	}
}

func TestSamplerStabilizeTime(t *testing.T) {
	pat := model.NewFailurePattern(3)
	inner := PairHistory{
		First:  NewOmega(pat, 17, 1),
		Second: NewSigmaNuPlus(pat, 23, 1),
	}
	s := NewSampler(inner)
	if got, want := s.StabilizeTime(), inner.StabilizeTime(); got != want {
		t.Fatalf("StabilizeTime = %d, want %d", got, want)
	}
	if s2 := NewSampler(Null); s2.StabilizeTime() != 0 {
		t.Error("non-stabilizer inner must report 0")
	}
}

// listValue is a detector value == cannot compare: it holds a slice.
type listValue struct{ ps []model.ProcessID }

func (v listValue) String() string { return fmt.Sprint(v.ps) }

func TestSamplerComparesUncomparableValuesByString(t *testing.T) {
	// Alone and inside a pair, a value holding a slice must not panic the
	// change test, and equal renderings keep the epoch.
	for _, wrap := range []func(model.FDValue) model.FDValue{
		func(v model.FDValue) model.FDValue { return v },
		func(v model.FDValue) model.FDValue { return PairValue{First: LeaderValue{Leader: 0}, Second: v} },
	} {
		h := HistoryFunc(func(p model.ProcessID, t model.Time) model.FDValue {
			return wrap(listValue{ps: []model.ProcessID{0, model.ProcessID(t / 2)}})
		})
		s := NewSampler(h)
		var epochs []uint64
		for tick := model.Time(0); tick < 4; tick++ {
			epochs = append(epochs, s.Output(0, tick).(Sample).Epoch)
		}
		if fmt.Sprint(epochs) != "[0 0 1 1]" {
			t.Fatalf("epochs = %v, want [0 0 1 1]", epochs)
		}
	}
}
