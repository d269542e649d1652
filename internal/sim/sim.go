// Package sim drives algorithm automata through finite executions of the
// asynchronous model: at each logical time a scheduler picks an alive
// process and a message (or λ), the process's failure-detector module is
// read from the history, and one atomic step (§2.4) is applied. The
// resulting execution is, by construction, a run in the sense of §2.6; with
// a fair scheduler and enough steps it approximates an admissible run.
//
// The package exposes two layers. Run is the step-level engine with an
// injected Scheduler — the full generality the adversarial experiments
// need (scripted schedulers, partial synchrony, kept schedules). S is the
// deterministic "sim" backend of internal/substrate built on top of it: it
// derives a fair (or partially synchronous) scheduler from the shared
// Options, so the same experiments run unchanged on the concurrent
// substrates.
package sim

import (
	"context"
	"fmt"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/substrate"
)

func init() { substrate.Register(S{}) }

// Exec configures one step-level execution: the run's inputs plus the
// scheduler embodying the model's nondeterminism. (The shared, substrate-
// portable knobs — seed, budget, GST — live in substrate.Options; Exec is
// the lower layer they compile down to.)
type Exec struct {
	Automaton model.Automaton
	Pattern   *model.FailurePattern
	History   model.History
	Scheduler Scheduler

	// MaxSteps bounds the execution length (required, > 0).
	MaxSteps int
	// StopWhen, if non-nil, ends the execution early when it returns true
	// (checked after each step).
	StopWhen func(c *model.Configuration, t model.Time) bool
	// Bus, if non-nil, receives the causal event stream (package obs) and
	// is the run's only per-step observer. On this substrate the emission
	// order is a pure function of the inputs, so exported event logs are
	// byte-identical across runs.
	Bus *obs.Bus
	// KeepSchedule retains the executed schedule and times in the Result so
	// it can be validated or merged (costs memory).
	KeepSchedule bool
}

// Run executes the automaton under the given pattern, history and
// scheduler, and returns the shared substrate result.
func Run(x Exec) (*substrate.Result, error) {
	if err := substrate.Validate("sim", x.Automaton, x.History, x.Pattern, substrate.Options{MaxSteps: x.MaxSteps}); err != nil {
		return nil, err
	}
	if x.Scheduler == nil {
		return nil, fmt.Errorf("sim: Scheduler is required")
	}

	c := model.InitialConfiguration(x.Automaton)
	res := &substrate.Result{Config: c}
	x.Bus.OnInit(c.States)

	// prevAlive tracks the alive set so crash events are emitted exactly
	// once, at the first time the pattern reports a process down.
	prevAlive := model.FullSet(x.Automaton.N())

	for step := 0; step < x.MaxSteps; step++ {
		t := model.Time(step + 1)
		alive := x.Pattern.Alive(t)
		if x.Bus != nil && alive != prevAlive {
			for i := 0; i < x.Automaton.N(); i++ {
				q := model.ProcessID(i)
				if prevAlive.Has(q) && !alive.Has(q) {
					x.Bus.OnCrash(t, q)
				}
			}
		}
		prevAlive = alive
		if alive.IsEmpty() {
			break // everyone has crashed; the run is over
		}
		p, m := x.Scheduler.Next(t, alive, c)
		if !alive.Has(p) {
			return nil, fmt.Errorf("sim: scheduler chose crashed process %s at t=%d", p, t)
		}
		d := x.History.Output(p, t)
		e := model.Step{P: p, M: m, D: d}
		if !e.Applicable(c) {
			return nil, fmt.Errorf("sim: scheduler produced inapplicable step %v", e)
		}
		sent := c.Apply(x.Automaton, e)
		res.Steps++
		res.Ticks = t
		res.CountSends(sent)
		var taken []*model.Message
		if m != nil {
			taken = []*model.Message{m}
		}
		x.Bus.OnStep(t, p, taken, d, sent, c.States[p])
		if x.KeepSchedule {
			res.Schedule = append(res.Schedule, e)
			res.Times = append(res.Times, t)
		}
		if x.StopWhen != nil && x.StopWhen(c, t) {
			res.Stopped = true
			break
		}
	}
	return substrate.Finish(res, x.Pattern), nil
}

// S is the deterministic step-simulator backend: substrate name "sim".
type S struct{}

// New returns the sim substrate handle.
func New() substrate.Substrate { return S{} }

// Name implements substrate.Substrate.
func (S) Name() string { return "sim" }

// Deterministic implements substrate.Substrate: equal inputs give
// byte-identical results.
func (S) Deterministic() bool { return true }

// Run implements substrate.Substrate by compiling the shared options down
// to a scheduled step-level execution.
func (S) Run(ctx context.Context, aut model.Automaton, hist model.History, pattern *model.FailurePattern, opts substrate.Options) (*substrate.Result, error) {
	if err := substrate.Validate("sim", aut, hist, pattern, opts); err != nil {
		return nil, err
	}
	var stop func(*model.Configuration, model.Time) bool
	if opts.StopWhenDecided {
		stop = substrate.AllCorrectDecided(pattern)
	}
	cancelled := false
	stopOrCancel := func(c *model.Configuration, t model.Time) bool {
		if ctx.Err() != nil {
			cancelled = true
			return true
		}
		return stop != nil && stop(c, t)
	}
	res, err := Run(Exec{
		Automaton: aut,
		Pattern:   pattern,
		History:   hist,
		Scheduler: SchedulerFor(opts),
		MaxSteps:  opts.MaxSteps,
		StopWhen:  stopOrCancel,
		Bus:       opts.Bus,
	})
	if cancelled {
		return nil, ctx.Err()
	}
	return res, err
}

// SchedulerFor builds the scheduler the shared options describe: a fair
// scheduler on the sim substrate's fixed fairness budget (receive the
// oldest pending message with probability 0.8, at most 3 consecutive
// λ-receives while messages are pending), or — when GST is set — a
// partially synchronous one that is hostile before GST and timely after.
func SchedulerFor(opts substrate.Options) Scheduler {
	if opts.GST > 0 {
		return &PartialSyncScheduler{
			GST:    opts.GST,
			Before: NewFairScheduler(opts.Seed, 0.3, 10),
			After:  NewFairScheduler(opts.Seed+1, 0.9, 2),
		}
	}
	return NewFairScheduler(opts.Seed, 0.8, 3)
}
