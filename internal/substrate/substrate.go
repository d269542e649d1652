// Package substrate is the pluggable execution layer beneath every
// experiment and driver in this repository. The paper's claims are
// statements about the abstract model of §2; the reproduction's credibility
// rests on showing the same Automaton values behave identically on three
// very different realizations of that model:
//
//   - "sim"   — the deterministic step simulator (internal/sim, DESIGN.md S6)
//   - "async" — one goroutine per process over in-memory links (cluster.go, S7)
//   - "tcp"   — a real TCP loopback mesh with wire-serialized payloads
//     (internal/netrun, S24)
//
// Each backend implements the one Substrate interface below against the one
// shared Options/Result pair, so experiments, the CLI and the public facade
// are written once and run anywhere. Future backends (a sharded in-process
// mesh, a real network) drop in by implementing Substrate and calling
// Register.
//
// The package also hosts what the backends share: the per-link FIFO Inbox
// (inbox.go), the concurrent cluster driver with crash injection
// (cluster.go) and the decision-collection helpers below. The two
// concurrent backends are that one driver over two transports, and a
// transport is a single function — ClusterHooks.Dispatch, "deliver these
// messages" — which is the paper's one kind of link (§2.4: reliable, every
// sent message eventually received) and the one place a link nemesis would
// wrap. The async backend is the driver with its default in-memory
// Dispatch, so it needs no package of its own.
package substrate

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
)

// Options is the one execution configuration shared by every substrate:
// the run's seed, budget and stop condition, plus where its observations
// go. Scheduling and link behaviour are not options — each substrate fixes
// its own (the simulator's fairness budget, the async take probability) —
// and GST, the one field only the simulator honors, says so.
type Options struct {
	// Seed derives all randomness of the run: the simulator's fair
	// scheduler and the concurrent substrates' per-process RNG streams.
	Seed int64

	// MaxSteps bounds the execution length (required, > 0). On the
	// simulator it is the number of atomic steps; on the concurrent
	// substrates it is the shared logical-clock budget (total steps across
	// all processes).
	MaxSteps int

	// StopWhenDecided ends the run early once every correct process (per
	// the failure pattern) has decided.
	StopWhenDecided bool

	// GST, if positive, makes the simulated execution partially
	// synchronous: hostile scheduling before GST, timely after. Honored by
	// the sim substrate; the concurrent substrates are inherently
	// partially synchronous. (Used by the from-scratch detector stacks.)
	GST model.Time

	// Bus, if non-nil, receives the run's causal event stream (package
	// obs): steps, sends, deliveries, detector queries, crashes and the
	// derived round/quorum/decision/emulated-output events. It is the
	// run's only per-step observer: a run keeps what the bus's sinks keep
	// (an obs.Collector for detector samples or emulated outputs) and,
	// with no bus, nothing per step. On the deterministic simulator the
	// emission order is a pure function of the run; the concurrent
	// substrates inject the wall-clock shim and emit in real-time order.
	Bus *obs.Bus

	// Metrics, if non-nil, receives substrate-level counters (inbox
	// supersede drops, idle waits by how they ended, messages joined into
	// link runs, transport frame counts). Usually the same registry the
	// Bus was built with.
	Metrics *obs.Registry
}

// Result is the one outcome type shared by every substrate.
type Result struct {
	// Config is the final configuration: every process's last state, plus
	// (on the simulator) the in-flight message buffer.
	Config *model.Configuration

	// Steps is the number of atomic steps executed (what the bus counts as
	// bus.steps); Ticks is the logical time when the run stopped, never
	// past MaxSteps. On the simulator both advance together; on the
	// concurrent substrates Ticks is the shared clock, which also ticks
	// when a process discovers it has crashed and when it skips an idle
	// λ-step (model.Idler), so Steps <= Ticks there.
	Steps int
	Ticks model.Time

	// MessagesSent counts the messages those steps sent, SentKinds the
	// same by payload kind. These are the run's only totals; its streams
	// (detector samples, emulated outputs, decision times) are events on
	// Options.Bus.
	MessagesSent int
	SentKinds    map[string]int

	// Stopped reports that the run ended through its stop predicate
	// rather than by exhausting MaxSteps.
	Stopped bool

	// Decided reports that every correct process decided; Decisions maps
	// each decided process (correct or not) to its value; MaxRound is the
	// highest round any process reached (0 for round-less automata).
	Decided   bool
	Decisions map[model.ProcessID]int
	MaxRound  int

	// BytesSent counts wire bytes written to sockets (tcp substrate only).
	BytesSent int64

	// Schedule and Times retain the executed schedule (sim substrate with
	// Exec.KeepSchedule only) so it can be validated or merged.
	Schedule model.Schedule
	Times    []model.Time
}

// Substrate is one execution backend. Run executes the automaton under the
// given failure pattern and failure-detector history until the options'
// budget or stop condition is met. Implementations must honor ctx
// cancellation (returning ctx.Err()) and must be safe for concurrent use
// by independent runs.
type Substrate interface {
	// Name is the backend's registry key and CLI name ("sim", "async", "tcp").
	Name() string
	// Deterministic reports whether two runs with equal inputs produce
	// identical results (true only for the step simulator).
	Deterministic() bool
	Run(ctx context.Context, aut model.Automaton, hist model.History, pattern *model.FailurePattern, opts Options) (*Result, error)
}

// registry holds the substrates by name. Backends self-register from their
// init functions: importing a backend package is what makes "sim" and "tcp"
// available, and "async" registers from this package.
var registry = map[string]Substrate{}

// Register adds a substrate under its Name. Registering two substrates
// with the same name is a programming error and panics.
func Register(s Substrate) {
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("substrate: duplicate registration of %q", s.Name()))
	}
	registry[s.Name()] = s
}

// Get returns the named substrate.
func Get(name string) (Substrate, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("substrate: unknown substrate %q (known: %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered substrates in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Validate checks the arguments every substrate requires. name prefixes
// the error messages.
func Validate(name string, aut model.Automaton, hist model.History, pattern *model.FailurePattern, opts Options) error {
	if aut == nil || pattern == nil || hist == nil {
		return errors.New(name + ": Automaton, Pattern and History are required")
	}
	if opts.MaxSteps <= 0 {
		return errors.New(name + ": MaxSteps must be positive")
	}
	if aut.N() != pattern.N() {
		return fmt.Errorf("%s: automaton n=%d but pattern n=%d", name, aut.N(), pattern.N())
	}
	return nil
}

// Finish derives the shared outcome fields (Decisions, Decided, MaxRound)
// from the result's final configuration and returns the result.
func Finish(res *Result, pattern *model.FailurePattern) *Result {
	res.Decisions = Decisions(res.Config)
	res.Decided = AllCorrectDecided(pattern)(res.Config, res.Ticks)
	for _, s := range res.Config.States {
		if r, ok := model.RoundOf(s); ok && r > res.MaxRound {
			res.MaxRound = r
		}
	}
	return res
}

// AllCorrectDecided returns a stop predicate that fires once every correct
// process (per pattern) has decided.
func AllCorrectDecided(pattern *model.FailurePattern) func(*model.Configuration, model.Time) bool {
	correct := pattern.Correct()
	return func(c *model.Configuration, _ model.Time) bool {
		done := true
		correct.ForEach(func(p model.ProcessID) {
			if _, ok := model.DecisionOf(c.States[p]); !ok {
				done = false
			}
		})
		return done
	}
}

// Decisions extracts the current decision of each process from a
// configuration (processes that have not decided are absent).
func Decisions(c *model.Configuration) map[model.ProcessID]int {
	out := make(map[model.ProcessID]int)
	for i, s := range c.States {
		if v, ok := model.DecisionOf(s); ok {
			out[model.ProcessID(i)] = v
		}
	}
	return out
}

// CountSends adds one step's sends to the result's message totals.
func (r *Result) CountSends(sent []*model.Message) {
	if r.SentKinds == nil && len(sent) > 0 {
		r.SentKinds = make(map[string]int)
	}
	r.MessagesSent += len(sent)
	for _, m := range sent {
		r.SentKinds[m.Payload.Kind()]++
	}
}
