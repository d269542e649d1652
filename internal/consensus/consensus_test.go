package consensus_test

import (
	"reflect"
	"testing"

	"nuconsensus/internal/check"
	"nuconsensus/internal/consensus"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// drive runs one consensus execution and returns the result.
func drive(t *testing.T, aut model.Automaton, pattern *model.FailurePattern, hist model.History, seed int64, maxSteps int) *substrate.Result {
	t.Helper()
	res, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(seed, 0.8, 3),
		MaxSteps:  maxSteps,
		StopWhen:  substrate.AllCorrectDecided(pattern),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func pairNuPlus(pattern *model.FailurePattern, stab model.Time, seed int64) model.History {
	return fd.PairHistory{First: fd.NewOmega(pattern, stab, seed), Second: fd.NewSigmaNuPlus(pattern, stab, seed)}
}

func pairSigma(pattern *model.FailurePattern, stab model.Time, seed int64) model.History {
	return fd.PairHistory{First: fd.NewOmega(pattern, stab, seed), Second: fd.NewSigma(pattern, stab, seed)}
}

// TestANucAllFailureCounts sweeps every f < n for a couple of sizes,
// including f ≥ n/2 where majorities are dead (the "any environment" claim).
func TestANucAllFailureCounts(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for f := 0; f < n; f++ {
			for seed := int64(1); seed <= 3; seed++ {
				pattern := model.NewFailurePattern(n)
				for i := 0; i < f; i++ {
					pattern.SetCrash(model.ProcessID(n-1-i), model.Time(10+7*i))
				}
				props := make([]int, n)
				for i := range props {
					props[i] = i % 2
				}
				res := drive(t, consensus.NewANuc(props), pattern, pairNuPlus(pattern, 90, seed), seed, 30000)
				if !res.Stopped {
					t.Fatalf("n=%d f=%d seed=%d: no decision", n, f, seed)
				}
				if err := check.OutcomeFromConfig(res.Config).NonuniformConsensus(pattern); err != nil {
					t.Fatalf("n=%d f=%d seed=%d: %v", n, f, seed, err)
				}
			}
		}
	}
}

// TestANucUnanimousProposalDecided: when every process proposes v, the only
// decidable value is v (a corollary of validity).
func TestANucUnanimousProposal(t *testing.T) {
	pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{0: 20})
	res := drive(t, consensus.NewANuc([]int{6, 6, 6, 6}), pattern, pairNuPlus(pattern, 60, 2), 2, 30000)
	for p, v := range substrate.Decisions(res.Config) {
		if v != 6 {
			t.Errorf("%v decided %d, want 6", p, v)
		}
	}
}

// TestANucDeterministic: the same seed and history must reproduce the same
// execution (the automaton and scheduler are deterministic).
func TestANucDeterministic(t *testing.T) {
	run := func() (map[model.ProcessID]int, int) {
		pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{3: 40})
		res := drive(t, consensus.NewANuc([]int{0, 1, 0, 1}), pattern, pairNuPlus(pattern, 60, 5), 5, 30000)
		return substrate.Decisions(res.Config), res.Steps
	}
	d1, s1 := run()
	d2, s2 := run()
	if s1 != s2 || !reflect.DeepEqual(d1, d2) {
		t.Fatalf("nondeterministic: (%v, %d) vs (%v, %d)", d1, s1, d2, s2)
	}
}

// TestANucDecisionIrrevocable: once a process decides, its decision never
// changes even as the protocol continues (§2.8).
func TestANucDecisionIrrevocable(t *testing.T) {
	pattern := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{2: 30})
	aut := consensus.NewANuc([]int{0, 1, 1})
	hist := pairNuPlus(pattern, 50, 3)

	first := make(map[model.ProcessID]int)
	_, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(3, 0.8, 3),
		MaxSteps:  1500, // keep running long after everyone decided
		StopWhen: func(c *model.Configuration, _ model.Time) bool {
			for i, s := range c.States {
				if v, ok := model.DecisionOf(s); ok {
					p := model.ProcessID(i)
					if old, seen := first[p]; seen && old != v {
						t.Fatalf("%v changed its decision from %d to %d", p, old, v)
					}
					first[p] = v
				}
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("nobody decided")
	}
}

// TestANucPanicsOnWrongDetector: driving A_nuc without a pair value is a
// misconfiguration and must fail loudly.
func TestANucPanicsOnWrongDetector(t *testing.T) {
	aut := consensus.NewANuc([]int{0, 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on missing Ω component")
		}
	}()
	st := aut.InitState(0)
	st, _ = aut.Step(0, st, nil, fd.QuorumValue{Quorum: model.SetOf(0)}) // phaseInit ok
	aut.Step(0, st, nil, fd.QuorumValue{Quorum: model.SetOf(0)})         // phaseLead needs Ω
}

func TestNewANucValidation(t *testing.T) {
	for _, bad := range [][]int{{}, {1}, make([]int, 65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewANuc(%d proposals) must panic", len(bad))
				}
			}()
			consensus.NewANuc(bad)
		}()
	}
}

// TestMRMajorityUniform: MR with majorities and a correct majority solves
// uniform consensus.
func TestMRMajorityUniform(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pattern := model.PatternFromCrashes(5, map[model.ProcessID]model.Time{1: 15, 3: 25})
		res := drive(t, consensus.NewMRMajority([]int{2, 2, 8, 8, 8}), pattern, fd.NewOmega(pattern, 60, seed), seed, 30000)
		if !res.Stopped {
			t.Fatalf("seed=%d: no decision", seed)
		}
		if err := check.OutcomeFromConfig(res.Config).UniformConsensus(pattern); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestMRMajorityBlocksWithoutMajority: with f ≥ n/2 the majority algorithm
// cannot terminate — the separation that motivates quorum detectors.
func TestMRMajorityBlocksWithoutMajority(t *testing.T) {
	pattern := model.PatternFromCrashes(4, map[model.ProcessID]model.Time{2: 10, 3: 12})
	res := drive(t, consensus.NewMRMajority([]int{0, 1, 0, 1}), pattern, fd.NewOmega(pattern, 30, 1), 1, 4000)
	if res.Stopped {
		t.Fatal("majority MR decided with half the processes crashed")
	}
	if len(substrate.Decisions(res.Config)) != 0 {
		t.Fatalf("unexpected decisions %v", substrate.Decisions(res.Config))
	}
}

// TestMRSigmaAnyEnvironment: MR with Σ quorums solves uniform consensus
// even with n−1 crashes.
func TestMRSigmaAnyEnvironment(t *testing.T) {
	for _, f := range []int{0, 2, 3} {
		pattern := model.NewFailurePattern(4)
		for i := 0; i < f; i++ {
			pattern.SetCrash(model.ProcessID(i+1), model.Time(8*(i+1)))
		}
		res := drive(t, consensus.NewMRSigma([]int{4, 9, 9, 4}), pattern, pairSigma(pattern, 60, 7), 7, 30000)
		if !res.Stopped {
			t.Fatalf("f=%d: no decision", f)
		}
		if err := check.OutcomeFromConfig(res.Config).UniformConsensus(pattern); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
	}
}

// TestRoundsAreMonotone: the exposed round counter never decreases.
func TestRoundsAreMonotone(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	aut := consensus.NewANuc([]int{0, 1, 0})
	hist := pairNuPlus(pattern, 40, 1)
	last := make(map[model.ProcessID]int)
	_, err := sim.Run(sim.Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: sim.NewFairScheduler(1, 0.8, 3),
		MaxSteps:  600,
		StopWhen: func(c *model.Configuration, _ model.Time) bool {
			for i, s := range c.States {
				r, _ := model.RoundOf(s)
				p := model.ProcessID(i)
				if r < last[p] {
					t.Fatalf("%v round went backwards: %d → %d", p, last[p], r)
				}
				last[p] = r
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPayloadMetadata covers Kind/String of every payload.
func TestPayloadMetadata(t *testing.T) {
	payloads := []model.Payload{
		consensus.LeadPayload{K: 1, V: 2},
		consensus.ReportPayload{K: 1, V: 2},
		consensus.ProposalPayload{K: 1, V: 2, HasV: true},
		consensus.ProposalPayload{K: 1},
		consensus.SawPayload{Q: model.SetOf(0)},
		consensus.AckPayload{Q: model.SetOf(0), K: 3},
	}
	kinds := map[string]bool{}
	for _, pl := range payloads {
		if pl.Kind() == "" || pl.String() == "" {
			t.Errorf("%T has empty metadata", pl)
		}
		kinds[pl.Kind()] = true
	}
	for _, want := range []string{"LEAD", "REP", "PROP", "SAW", "ACK"} {
		if !kinds[want] {
			t.Errorf("missing payload kind %s", want)
		}
	}
	// The "?" proposal renders distinctly.
	unknown := consensus.ProposalPayload{K: 1}
	known := consensus.ProposalPayload{K: 1, V: 0, HasV: true}
	if unknown.String() == known.String() {
		t.Error("? proposal must render differently from value 0")
	}
}

// TestANucSawAckBookkeeping drives the SAW/ACK handshake directly: after p
// announces quorum Q and every member acknowledges, decisions in later
// rounds become possible (seen gate open); the test observes the handshake
// messages in a real run.
func TestANucSawAckBookkeeping(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	res := drive(t, consensus.NewANuc([]int{1, 1, 1}), pattern, pairNuPlus(pattern, 0, 4), 4, 30000)
	if !res.Stopped {
		t.Fatal("no decision")
	}
	if res.SentKinds["SAW"] == 0 || res.SentKinds["ACK"] == 0 {
		t.Errorf("expected SAW/ACK traffic, got %v", res.SentKinds)
	}
	// One ACK per SAW recipient: with a single stable quorum of size 3,
	// ACKs ≥ SAWs.
	if res.SentKinds["ACK"] < res.SentKinds["SAW"] {
		t.Errorf("fewer ACKs (%d) than SAWs (%d)", res.SentKinds["ACK"], res.SentKinds["SAW"])
	}
}

// TestAblatedNamesAndBehavior: ablations advertise themselves and the full
// variant still solves consensus.
func TestAblatedNamesAndBehavior(t *testing.T) {
	names := map[string]consensus.Ablation{
		"A_nuc":                  {},
		"A_nuc[-distrust]":       {NoDistrust: true},
		"A_nuc[-seen]":           {NoSeenGate: true},
		"A_nuc[-distrust,-seen]": {NoDistrust: true, NoSeenGate: true},
	}
	for want, ab := range names {
		if got := consensus.NewANucAblated([]int{0, 1}, ab).Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// TestMRPanicsOnWrongDetector: misconfigured detector values fail loudly.
func TestMRPanicsOnWrongDetector(t *testing.T) {
	t.Run("missing leader", func(t *testing.T) {
		aut := consensus.NewMRMajority([]int{0, 1})
		st := aut.InitState(0)
		st, _ = aut.Step(0, st, nil, fd.NullValue{}) // phaseInit ignores d
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		aut.Step(0, st, nil, fd.NullValue{}) // phaseLead needs Ω
	})
	t.Run("missing quorum", func(t *testing.T) {
		aut := consensus.NewMRSigma([]int{0, 1})
		s0 := aut.InitState(0)
		s1, _ := aut.Step(0, s0, nil, fd.LeaderValue{Leader: 0})
		// Feed itself its own LEAD so phaseLead completes, reaching the
		// quorum wait with a leader-only value.
		c := model.InitialConfiguration(aut)
		c.States[0] = s1
		_ = c
		// Hand-deliver a LEAD(1) message from p0 to itself: the wait at
		// phaseLead completes and the process parks at the report wait.
		m := &model.Message{From: 0, To: 0, Seq: 0, Payload: consensus.LeadPayload{K: 1, V: 0}}
		s2, _ := aut.Step(0, s1, m, fd.LeaderValue{Leader: 0})
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		// The report wait polls the quorum component — absent here.
		aut.Step(0, s2, nil, fd.LeaderValue{Leader: 0})
	})
}

// TestCTPayloadMetadata covers the CT payload kinds.
func TestCTPayloadMetadata(t *testing.T) {
	payloads := []model.Payload{
		consensus.EstimatePayload{R: 1, V: 2, TS: 0},
		consensus.CoordPayload{R: 1, V: 2},
		consensus.ReplyPayload{R: 1, Ok: true},
		consensus.DecidePayload{V: 2},
	}
	seen := map[string]bool{}
	for _, pl := range payloads {
		if pl.Kind() == "" || pl.String() == "" {
			t.Errorf("%T has empty metadata", pl)
		}
		if seen[pl.Kind()] {
			t.Errorf("duplicate payload kind %s", pl.Kind())
		}
		seen[pl.Kind()] = true
	}
}
