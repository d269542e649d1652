package nuconsensus

import (
	"context"
	"fmt"

	"nuconsensus/internal/check"
	"nuconsensus/internal/fd"
	"nuconsensus/internal/model"
	"nuconsensus/internal/netrun"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// SimOptions configures a deterministic simulated execution of an
// automaton under a failure pattern and failure-detector history.
type SimOptions struct {
	Automaton Automaton
	Pattern   *FailurePattern
	History   History

	// Seed drives the fair scheduler (process interleaving and message
	// delays).
	Seed int64
	// MaxSteps bounds the execution (default 50000).
	MaxSteps int
	// StopWhenDecided ends the run once every correct process decided
	// (default true for consensus automata).
	StopWhenDecided bool
	// GST, if positive, makes the execution partially synchronous: before
	// GST the scheduler is hostile (messages starved for long stretches),
	// after GST it is timely. Use with the from-scratch detector
	// implementations (HeartbeatOmega, OracleFreeANuc), which are correct
	// exactly under eventual timeliness.
	GST Time
}

// SimResult is the outcome of an execution on any substrate.
type SimResult struct {
	// States holds each process's final state.
	States []model.State
	// Config is the final configuration (states + in-flight messages).
	Config *model.Configuration
	// Steps is the number of steps executed; Decided reports whether every
	// correct process decided before the budget ran out.
	Steps   int
	Decided bool
	// Decisions maps each decided process to its value.
	Decisions map[ProcessID]int
	// MessagesSent counts all messages sent, by payload kind.
	MessagesSent int
	SentKinds    map[string]int
	// EmulatedOutputs is the emulated failure-detector history H′ of
	// transformation algorithms (§2.9): the value of every process's output
	// variable at every time of the run, on every substrate (empty for
	// plain consensus runs, and for SimulateRecorded and Replay, which keep
	// the schedule instead).
	EmulatedOutputs []Sample
}

func fromSubstrate(res *substrate.Result) *SimResult {
	return &SimResult{
		States:       res.Config.States,
		Config:       res.Config,
		Steps:        res.Steps,
		Decided:      res.Decided,
		Decisions:    res.Decisions,
		MessagesSent: res.MessagesSent,
		SentKinds:    res.SentKinds,
	}
}

// withOutputs lifts a substrate result whose bus fed outputs, a collector
// of obs.KindFDOutput events, and rebuilds the emulated history from them.
func withOutputs(res *substrate.Result, outputs *obs.Collector) *SimResult {
	r := fromSubstrate(res)
	r.EmulatedOutputs = check.History(outputs.Events(), res.Ticks)
	return r
}

// Simulate runs one execution on the deterministic step simulator: at each
// logical time a seeded fair scheduler picks an alive process and a pending
// message (or none), the process's failure-detector module is read from the
// history, and one atomic step of the paper's model (§2.4) is applied.
func Simulate(opts SimOptions) (*SimResult, error) {
	outputs := obs.NewCollector(obs.KindFDOutput)
	x := simExec(opts, 50000)
	x.Bus = obs.NewBus(nil, nil, outputs)
	res, err := sim.Run(x)
	if err != nil {
		return nil, err
	}
	return withOutputs(res, outputs), nil
}

// ClusterOptions configures a concurrent execution (async goroutine runtime
// or TCP loopback mesh): one goroutine per process, crash injection, and
// local failure-detector modules read at a shared logical clock.
type ClusterOptions struct {
	Automaton Automaton
	Pattern   *FailurePattern
	History   History
	Seed      int64
	// MaxTicks bounds the cluster's total steps (default 200000).
	MaxTicks Time
}

func runConcurrent(s substrate.Substrate, opts ClusterOptions) (*SimResult, error) {
	maxTicks := opts.MaxTicks
	if maxTicks <= 0 {
		maxTicks = 200000
	}
	outputs := obs.NewCollector(obs.KindFDOutput)
	res, err := s.Run(context.Background(), opts.Automaton, historyOrNull(opts.History), opts.Pattern, substrate.Options{
		Seed:            opts.Seed,
		MaxSteps:        int(maxTicks),
		StopWhenDecided: true,
		Bus:             obs.NewBus(nil, nil, outputs),
	})
	if err != nil {
		return nil, err
	}
	return withOutputs(res, outputs), nil
}

// RunCluster executes the automaton on the concurrent goroutine runtime
// (the "async" substrate) and blocks until every correct process decides or
// the budget runs out.
func RunCluster(opts ClusterOptions) (*SimResult, error) {
	async, err := substrate.Get("async")
	if err != nil {
		return nil, err
	}
	return runConcurrent(async, opts)
}

// RunTCP executes the automaton over a real TCP mesh on the loopback
// interface (the "tcp" substrate): one goroutine per process, one socket
// per process pair, every payload — including quorum histories and whole
// DAG snapshots — serialized with the internal/wire binary format. The most
// system-like substrate; asynchrony comes from goroutine scheduling and TCP
// buffering.
func RunTCP(opts ClusterOptions) (*SimResult, error) {
	return runConcurrent(netrun.New(), opts)
}

// CheckEmulatedSigmaNu verifies that recorded emulated outputs satisfy the
// Σν specification, using the last completeness violation as the horizon
// for the eventual property and requiring it to fall within the first
// four-fifths of the record.
func CheckEmulatedSigmaNu(r *SimResult, f *FailurePattern) error {
	return checkEmulated(r, f, check.SigmaNu)
}

// CheckEmulatedSigmaNuPlus verifies emulated outputs against the Σν+ spec.
func CheckEmulatedSigmaNuPlus(r *SimResult, f *FailurePattern) error {
	return checkEmulated(r, f, check.SigmaNuPlus)
}

// CheckEmulatedSigma verifies emulated outputs against the full (uniform) Σ
// spec.
func CheckEmulatedSigma(r *SimResult, f *FailurePattern) error {
	return checkEmulated(r, f, check.Sigma)
}

func checkEmulated(r *SimResult, f *FailurePattern, spec func([]Sample, *model.FailurePattern, model.Time) error) error {
	horizon, err := check.LastCompletenessViolation(r.EmulatedOutputs, f)
	if err != nil {
		return err
	}
	end := Time(0)
	for _, s := range r.EmulatedOutputs {
		if s.T > end {
			end = s.T
		}
	}
	if horizon > end*4/5 {
		return errStabilization{horizon: horizon, end: end}
	}
	return spec(r.EmulatedOutputs, f, horizon)
}

// nullHistory is the trivial no-information detector used when an
// automaton ignores the ambient failure detector.
func nullHistory() History { return fd.Null }

type errStabilization struct {
	horizon, end Time
}

func (e errStabilization) Error() string {
	return fmt.Sprintf("nuconsensus: emulated detector had completeness violations too close to the end of the record (horizon %d of %d); run longer to observe stabilization",
		e.horizon, e.end)
}
