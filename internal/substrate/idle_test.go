package substrate_test

import (
	"context"
	"sync/atomic"
	"testing"

	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/rsm"
	"nuconsensus/internal/substrate"
)

// stillAut is a cluster whose processes never send: every λ-step is a
// stutter, and Idle says so. With decided set, every process has decided
// from the start.
type stillAut struct {
	n       int
	decided bool
}

type stillState struct{ decided bool }

func (s *stillState) CloneState() model.State { c := *s; return &c }

func (s *stillState) Decision() (int, bool) { return 0, s.decided }

func (a stillAut) Name() string                          { return "still" }
func (a stillAut) N() int                                { return a.n }
func (a stillAut) InitState(model.ProcessID) model.State { return &stillState{decided: a.decided} }
func (a stillAut) Step(_ model.ProcessID, s model.State, _ *model.Message, _ model.FDValue) (model.State, []model.Send) {
	return s, nil
}
func (a stillAut) Idle(model.ProcessID, model.State, model.FDValue) bool { return true }

// plainAut hides its automaton's Idle: the driver cannot tell a stutter
// from a step.
type plainAut struct{ model.Automaton }

// idlePong is pingPong over a payload the TCP codec carries, telling the
// driver which λ-steps are stutters: all but p0's first. lambdaIdle counts
// the λ-steps it took anyway.
type idlePong struct{ lambdaIdle *atomic.Int64 }

func (idlePong) Name() string                            { return "idle-pong" }
func (idlePong) N() int                                  { return 2 }
func (idlePong) InitState(p model.ProcessID) model.State { return pingPong{}.InitState(p) }
func (a idlePong) Step(p model.ProcessID, s model.State, m *model.Message, d model.FDValue) (model.State, []model.Send) {
	if m == nil && a.Idle(p, s, d) {
		a.lambdaIdle.Add(1)
	}
	ns, sends := pingPong{}.Step(p, s, m, d)
	for i := range sends {
		sends[i].Payload = rsm.CommandPayload{}
	}
	return ns, sends
}
func (idlePong) Idle(p model.ProcessID, s model.State, _ model.FDValue) bool {
	return p != 0 || s.(*pongState).started
}

// runIdle runs aut on the named substrate with a fresh registry behind
// both the bus and the substrate counters.
func runIdle(t *testing.T, sub string, aut model.Automaton, pattern *model.FailurePattern, opts substrate.Options) (*substrate.Result, *obs.Registry) {
	t.Helper()
	s, err := substrate.Get(sub)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Seed, opts.Bus, opts.Metrics = 1, obs.NewBus(nil, reg), reg
	res, err := s.Run(context.Background(), aut, fd.Null, pattern, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

// TestRunClusterSkipsIdleSteps: a process whose take found nothing and
// whose automaton says idle does not step, on either concurrent substrate;
// the tick is still spent, so crashes fire and the budget runs out as
// before, and the stop check still runs. TCP takes on every pass, so there
// every skipped pass is exact; async skips its take on some passes and
// takes those λ-steps regardless.
func TestRunClusterSkipsIdleSteps(t *testing.T) {
	const budget = 600
	for _, sub := range []string{"async", "tcp"} {
		t.Run(sub, func(t *testing.T) {
			exact := sub == "tcp"
			none := model.NewFailurePattern(3)

			// Idle processes take no λ-steps, and idle_skips counts the
			// passes they skipped.
			res, reg := runIdle(t, sub, stillAut{n: 3}, none, substrate.Options{MaxSteps: budget})
			skips := reg.Counter("substrate.idle_skips").Value()
			if int(skips)+res.Steps != budget || skips <= int64(res.Steps) || exact && res.Steps != 0 {
				t.Errorf("idle cluster: %d steps and %d skips over %d ticks", res.Steps, skips, budget)
			}
			var lambdaIdle atomic.Int64
			res, reg = runIdle(t, sub, idlePong{&lambdaIdle}, model.NewFailurePattern(2), substrate.Options{MaxSteps: 1_000_000, StopWhenDecided: true})
			skips = reg.Counter("substrate.idle_skips").Value()
			if !res.Decided || res.MessagesSent != 2*pingRounds || skips == 0 {
				t.Fatalf("ping-pong: Decided=%v after %d messages and %d skips", res.Decided, res.MessagesSent, skips)
			}
			if lambdaIdle.Load() >= skips || exact && (lambdaIdle.Load() != 0 || res.Steps != 2*pingRounds+1) {
				t.Errorf("ping-pong: %d steps for %d messages, %d of them idle λ-steps, %d skips", res.Steps, res.MessagesSent, lambdaIdle.Load(), skips)
			}

			// A crash at tick 100 fires while every process is idle.
			crash := model.PatternFromCrashes(3, map[model.ProcessID]model.Time{1: 100})
			res, reg = runIdle(t, sub, stillAut{n: 3}, crash, substrate.Options{MaxSteps: budget})
			skips = reg.Counter("substrate.idle_skips").Value()
			if c := reg.Counter("bus.crashes").Value(); c != 1 || int(skips)+res.Steps != budget-1 {
				t.Errorf("crash at tick 100: %d crashes, %d steps and %d skips over %d ticks", c, res.Steps, skips, budget)
			}

			// StopWhenDecided halts a cluster that is all idle and decided.
			res, _ = runIdle(t, sub, stillAut{n: 3, decided: true}, none, substrate.Options{MaxSteps: 20_000, StopWhenDecided: true})
			if !res.Stopped || res.Ticks > 100 || exact && res.Steps != 0 {
				t.Errorf("decided idle cluster: Stopped=%v after %d ticks and %d steps", res.Stopped, res.Ticks, res.Steps)
			}

			// Without Idler every pass steps, as before.
			res, reg = runIdle(t, sub, plainAut{stillAut{n: 3}}, none, substrate.Options{MaxSteps: budget})
			if skips := reg.Counter("substrate.idle_skips").Value(); res.Steps != budget || skips != 0 {
				t.Errorf("no Idler: %d steps and %d skips over %d ticks", res.Steps, skips, budget)
			}
		})
	}
}
