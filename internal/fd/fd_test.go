package fd_test

import (
	"fmt"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
)

// samplePatterns returns a few representative failure patterns over n
// processes: failure-free, one early crash, minority, and all-but-one.
func samplePatterns(n int) []*model.FailurePattern {
	out := []*model.FailurePattern{model.NewFailurePattern(n)}
	p1 := model.NewFailurePattern(n)
	p1.SetCrash(1, 10)
	out = append(out, p1)
	pm := model.NewFailurePattern(n)
	for i := 0; i < (n-1)/2; i++ {
		pm.SetCrash(model.ProcessID(i), model.Time(5+i))
	}
	out = append(out, pm)
	pa := model.NewFailurePattern(n)
	for i := 1; i < n; i++ {
		pa.SetCrash(model.ProcessID(i), model.Time(3*i))
	}
	out = append(out, pa)
	return out
}

// sampleAll queries the history at every process (while alive) over [0, end]
// and returns the records.
func sampleAll(h model.History, f *model.FailurePattern, end model.Time) []check.Sample {
	var out []check.Sample
	for t := model.Time(0); t <= end; t++ {
		for p := 0; p < f.N(); p++ {
			pid := model.ProcessID(p)
			if f.Crashed(pid, t) {
				continue // crashed modules are never queried
			}
			out = append(out, check.Sample{P: pid, T: t, Val: h.Output(pid, t)})
		}
	}
	return out
}

const stab = model.Time(50)

func TestOmegaSatisfiesSpec(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		for pi, pattern := range samplePatterns(n) {
			for seed := int64(0); seed < 3; seed++ {
				h := fd.NewOmega(pattern, stab, seed)
				samples := sampleAll(h, pattern, 120)
				ls, err := check.LeaderSamples(samples)
				if err != nil {
					t.Fatal(err)
				}
				if err := check.Omega(ls, pattern, stab); err != nil {
					t.Errorf("n=%d pattern#%d seed=%d: %v", n, pi, seed, err)
				}
			}
		}
	}
}

func TestSigmaSatisfiesSpec(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		for pi, pattern := range samplePatterns(n) {
			for seed := int64(0); seed < 3; seed++ {
				h := fd.NewSigma(pattern, stab, seed)
				if err := check.Sigma(sampleAll(h, pattern, 120), pattern, stab); err != nil {
					t.Errorf("n=%d pattern#%d seed=%d: %v", n, pi, seed, err)
				}
			}
		}
	}
}

func TestSigmaNuSatisfiesSpec(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		for pi, pattern := range samplePatterns(n) {
			for seed := int64(0); seed < 3; seed++ {
				h := fd.NewSigmaNu(pattern, stab, seed)
				if err := check.SigmaNu(sampleAll(h, pattern, 120), pattern, stab); err != nil {
					t.Errorf("n=%d pattern#%d seed=%d: %v", n, pi, seed, err)
				}
			}
		}
	}
}

func TestSigmaNuJunkIsNotSigma(t *testing.T) {
	// The point of Σν: with at least one faulty process, the canonical
	// adversarial history violates Σ's *uniform* intersection.
	pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{3: 30})
	h := fd.NewSigmaNu(pattern, stab, 1)
	if err := check.Sigma(sampleAll(h, pattern, 120), pattern, stab); err == nil {
		t.Error("adversarial Σν history unexpectedly satisfies full Σ")
	}
}

func TestSigmaNuPlusSatisfiesSpec(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		for pi, pattern := range samplePatterns(n) {
			for seed := int64(0); seed < 3; seed++ {
				h := fd.NewSigmaNuPlus(pattern, stab, seed)
				if err := check.SigmaNuPlus(sampleAll(h, pattern, 120), pattern, stab); err != nil {
					t.Errorf("n=%d pattern#%d seed=%d: %v", n, pi, seed, err)
				}
			}
		}
	}
}

func TestHistoriesAreFunctions(t *testing.T) {
	// Querying H(p, t) twice must return the same value (§2.3: a history is
	// a function).
	pattern := model.PatternFromCrashes(5, map[model.ProcessID]model.Time{2: 20})
	hists := map[string]model.History{
		"Ω":   fd.NewOmega(pattern, stab, 7),
		"Σ":   fd.NewSigma(pattern, stab, 7),
		"Σν":  fd.NewSigmaNu(pattern, stab, 7),
		"Σν+": fd.NewSigmaNuPlus(pattern, stab, 7),
	}
	for name, h := range hists {
		for tt := model.Time(0); tt < 100; tt += 7 {
			for p := 0; p < 5; p++ {
				a := h.Output(model.ProcessID(p), tt).String()
				b := h.Output(model.ProcessID(p), tt).String()
				if a != b {
					t.Errorf("%s: H(%d,%d) nondeterministic: %s vs %s", name, p, tt, a, b)
				}
			}
		}
	}
}

func TestPairHistory(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	h := fd.PairHistory{
		First:  fd.NewOmega(pattern, 10, 1),
		Second: fd.NewSigma(pattern, 20, 1),
	}
	v := h.Output(0, 30)
	l, ok := fd.LeaderOf(v)
	if !ok || l != 0 {
		t.Errorf("LeaderOf = %v, %v", l, ok)
	}
	q, ok := fd.QuorumOf(v)
	if !ok || q != pattern.Correct() {
		t.Errorf("QuorumOf = %v, %v", q, ok)
	}
	if got := h.StabilizeTime(); got != 20 {
		t.Errorf("pair StabilizeTime = %d, want max(10,20)", got)
	}
}

func TestValueExtractors(t *testing.T) {
	lv := fd.LeaderValue{Leader: 2}
	qv := fd.QuorumValue{Quorum: model.SetOf(1, 2)}
	nested := fd.PairValue{First: fd.PairValue{First: lv, Second: qv}, Second: qv}

	if l, ok := fd.LeaderOf(nested); !ok || l != 2 {
		t.Errorf("LeaderOf(nested) = %v, %v", l, ok)
	}
	if q, ok := fd.QuorumOf(nested); !ok || q != model.SetOf(1, 2) {
		t.Errorf("QuorumOf(nested) = %v, %v", q, ok)
	}
	if _, ok := fd.LeaderOf(qv); ok {
		t.Error("LeaderOf(QuorumValue) must fail")
	}
	if _, ok := fd.QuorumOf(lv); ok {
		t.Error("QuorumOf(LeaderValue) must fail")
	}
	if _, ok := fd.LeaderOf(fd.NullValue{}); ok {
		t.Error("LeaderOf(NullValue) must fail")
	}
	for _, v := range []model.FDValue{lv, qv, nested, fd.NullValue{}} {
		if v.String() == "" {
			t.Errorf("%T renders empty", v)
		}
	}
}

func TestMisleadingAndAlternatingOmega(t *testing.T) {
	mis := &fd.MisleadingOmega{Misleader: 2, Leader: 0, Stabilize: 50}
	if l, _ := fd.LeaderOf(mis.Output(1, 10)); l != 2 {
		t.Errorf("misleading prefix output %v", l)
	}
	if l, _ := fd.LeaderOf(mis.Output(1, 50)); l != 0 {
		t.Errorf("post-stabilize output %v", l)
	}

	alt := &fd.AlternatingOmega{Misleader: 2, Leader: 0, Period: 10, Stabilize: 100, SelfLoyal: true}
	if l, _ := fd.LeaderOf(alt.Output(0, 5)); l != 0 {
		t.Error("first window must show the leader")
	}
	if l, _ := fd.LeaderOf(alt.Output(0, 15)); l != 2 {
		t.Error("second window must show the misleader")
	}
	if l, _ := fd.LeaderOf(alt.Output(2, 5)); l != 2 {
		t.Error("self-loyal misleader must trust itself")
	}
	if l, _ := fd.LeaderOf(alt.Output(0, 200)); l != 0 {
		t.Error("post-stabilize must show the leader")
	}
	// The adversary is a legal Ω history (for correct observers).
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 120})
	samples := sampleAll(alt, pattern, 200)
	ls, err := check.LeaderSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Omega(ls, pattern, 100); err != nil {
		t.Errorf("AlternatingOmega is not a legal Ω history: %v", err)
	}
}

func TestConstPerProcess(t *testing.T) {
	h := fd.ConstPerProcess{Values: []model.FDValue{
		fd.LeaderValue{Leader: 0},
		fd.LeaderValue{Leader: 1},
	}}
	for tt := model.Time(0); tt < 5; tt++ {
		if l, _ := fd.LeaderOf(h.Output(1, tt)); l != 1 {
			t.Fatalf("ConstPerProcess output changed at t=%d", tt)
		}
	}
	if h.StabilizeTime() != 0 {
		t.Error("constant history stabilizes at 0")
	}
}

func TestNullHistory(t *testing.T) {
	if got := fd.Null.Output(3, 99); got.String() != "⊥" {
		t.Errorf("Null output = %v", got)
	}
}

func ExampleNewSigmaNu() {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 30})
	h := fd.NewSigmaNu(pattern, 50, 1)
	fmt.Println(h.Output(0, 60)) // correct, post-stabilization
	// Output: Q={p0,p1}
}

func TestSuspicionSatisfiesEventuallyPerfect(t *testing.T) {
	for _, n := range []int{3, 5} {
		for pi, pattern := range samplePatterns(n) {
			for seed := int64(0); seed < 3; seed++ {
				h := fd.NewSuspicion(pattern, stab, seed)
				if err := check.EventuallyPerfect(sampleAll(h, pattern, 120), pattern, stab); err != nil {
					t.Errorf("n=%d pattern#%d seed=%d: %v", n, pi, seed, err)
				}
				// A module never suspects itself, even before stabilization.
				for tt := model.Time(0); tt < stab; tt += 7 {
					for p := 0; p < n; p++ {
						pid := model.ProcessID(p)
						if pattern.Crashed(pid, tt) {
							continue
						}
						sus, _ := fd.SuspectsOf(h.Output(pid, tt))
						if sus.Has(pid) {
							t.Fatalf("module %v suspects itself at t=%d", pid, tt)
						}
					}
				}
			}
		}
	}
}

func TestSuspectsOfExtraction(t *testing.T) {
	v := fd.SuspectsValue{Suspects: model.SetOf(1, 2)}
	if s, ok := fd.SuspectsOf(v); !ok || s != model.SetOf(1, 2) {
		t.Errorf("SuspectsOf = %v, %v", s, ok)
	}
	pair := fd.PairValue{First: fd.LeaderValue{Leader: 0}, Second: v}
	if s, ok := fd.SuspectsOf(pair); !ok || s != model.SetOf(1, 2) {
		t.Errorf("SuspectsOf(pair) = %v, %v", s, ok)
	}
	if _, ok := fd.SuspectsOf(fd.NullValue{}); ok {
		t.Error("SuspectsOf(Null) must fail")
	}
	if v.String() == "" {
		t.Error("SuspectsValue must render")
	}
}
