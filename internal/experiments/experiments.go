// Package experiments implements the reproduction experiments of
// EXPERIMENTS.md: one Spec per experiment (E1–E18) and per quantitative
// figure (Q1–Q7), 25 in all, each producing a Table that cmd/experiments
// renders (the root bench_test.go only times each experiment's core
// workload). Every theorem, algorithm and proof scenario of
// the paper maps to one of these. The specs run on the parallel
// deterministic engine in engine.go: RunIDs fans the per-seed units of
// the selected experiments out across a worker pool and reduces them in
// canonical order, so the tables are bitwise identical for any worker
// count.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"nuconsensus/internal/check"
	"nuconsensus/internal/model"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/substrate"

	// The substrate backends register themselves on import (async comes
	// with package substrate), so every consumer of this package can
	// resolve -substrate sim|async|tcp.
	_ "nuconsensus/internal/netrun"
	_ "nuconsensus/internal/sim"
)

// Table is one regenerated experiment table.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim"` // the paper's claim being exercised
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Pass    bool       `json:"pass"`
	Notes   []string   `json:"notes,omitempty"`

	// Elapsed is the summed unit work time of the table; RowTimes is the
	// per-row breakdown and UnitTimes the per-unit wall-clock durations in
	// canonical config order. All three are nondeterministic diagnostics:
	// they vary run to run, are deliberately excluded from Render, and
	// golden comparisons must strip them (CI compares rendered tables and
	// event logs, never the *_ns fields).
	Elapsed   time.Duration   `json:"elapsed_ns"`
	RowTimes  []time.Duration `json:"row_times_ns,omitempty"`
	UnitTimes []time.Duration `json:"unit_times_ns,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render prints the table as GitHub-flavored markdown.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "Claim: %s\n\n", t.Claim)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	b.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	fmt.Fprintf(&b, "- verdict: %s\n", map[bool]string{true: "PASS", false: "FAIL"}[t.Pass])
	return b.String()
}

// Report is the machine-readable form of one engine run — what
// cmd/experiments -json writes and CI archives.
type Report struct {
	Scale   Scale         `json:"scale"`
	Workers int           `json:"workers"`
	Pass    bool          `json:"pass"`
	Wall    time.Duration `json:"wall_ns"`
	Tables  []Table       `json:"tables"`

	// MemAllocBytes and NumGC summarize the process's allocation activity
	// over the run (runtime.MemStats deltas). Like Wall and the tables'
	// *_ns fields they are nondeterministic diagnostics, excluded from
	// golden comparisons.
	MemAllocBytes uint64 `json:"mem_alloc_bytes,omitempty"`
	NumGC         uint32 `json:"num_gc,omitempty"`
}

// NewReport assembles a Report from finished tables.
func NewReport(tables []Table, sc Scale, workers int, wall time.Duration) Report {
	r := Report{Scale: sc, Workers: workers, Pass: true, Wall: wall, Tables: tables}
	for _, t := range tables {
		if !t.Pass {
			r.Pass = false
		}
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Scale controls how much work the experiments do; benchmarks and the CLI
// use Quick, the recorded EXPERIMENTS.md run uses Full.
type Scale struct {
	Seeds    int `json:"seeds"`
	MaxSteps int `json:"max_steps"`

	// Substrate names the execution backend the portable experiments run
	// on ("sim", "async", "tcp"); empty means "sim". Experiments not marked
	// Portable refuse to run on a non-sim substrate.
	Substrate string `json:"substrate,omitempty"`

	// Bus and Metrics instrument every substrate execution a unit
	// performs (runConsensus wires them into substrate.Options). The
	// engine sets Bus per unit when event collection is on — one bus per
	// unit keeps Lamport clocks and event streams independent, so the
	// canonical-order export is byte-identical at any worker count.
	// Runtime wiring, not scale parameters: excluded from JSON.
	Bus     *obs.Bus      `json:"-"`
	Metrics *obs.Registry `json:"-"`
}

// SubstrateName resolves the scale's backend name, defaulting to "sim".
func (sc Scale) SubstrateName() string {
	if sc.Substrate == "" {
		return "sim"
	}
	return sc.Substrate
}

// substrate resolves the scale's execution backend from the registry.
func (sc Scale) substrate() (substrate.Substrate, error) {
	return substrate.Get(sc.SubstrateName())
}

// Quick is the default scale for tests and benchmarks.
var Quick = Scale{Seeds: 3, MaxSteps: 30000}

// Full is the scale used to record EXPERIMENTS.md.
var Full = Scale{Seeds: 10, MaxSteps: 60000}

// randomPattern draws a failure pattern with exactly f crashes at times in
// [1, maxCrash].
func randomPattern(n, f int, maxCrash model.Time, rng *rand.Rand) *model.FailurePattern {
	pat := model.NewFailurePattern(n)
	perm := rng.Perm(n)
	for i := 0; i < f; i++ {
		pat.SetCrash(model.ProcessID(perm[i]), 1+model.Time(rng.Int63n(int64(maxCrash))))
	}
	return pat
}

// mixedProposals assigns binary proposals, guaranteeing both values appear.
func mixedProposals(n int, rng *rand.Rand) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = rng.Intn(2)
	}
	ps[0], ps[n-1] = 0, 1
	return ps
}

// consensusRun is one measured consensus execution.
type consensusRun struct {
	Decided  bool
	Steps    int
	MaxRound int
	Sent     int
	Kinds    map[string]int
	Outcome  check.ConsensusOutcome
}

// concurrentBudgetFloor and concurrentBudgetPerProc set the minimum
// logical-clock budget granted on the concurrent substrates: their shared
// clock ticks once per step of *any* process (including idle spins while
// messages are in flight), so a per-step budget tuned for the simulator
// starves them, and the starvation grows with n. StopWhenDecided keeps the
// real cost of a deciding run far below the floor.
const (
	concurrentBudgetFloor   = 200000
	concurrentBudgetPerProc = 100000
)

// blockBudget marks a deliberately bounded budget: runConsensus will not
// raise it to the concurrent-substrate floor. Units use it when they expect
// the algorithm to block — the budget only bounds how long they wait before
// declaring "it blocked", so raising it would just burn time.
func blockBudget(ticks int) int { return -ticks }

// runConsensus drives a consensus automaton on the scale's substrate until
// every correct process decides (or maxSteps). On "sim" (the default) it
// reproduces the historical fair-scheduled execution exactly, so the sim
// tables stay byte-identical. A negative maxSteps (see blockBudget) means
// "exactly that many ticks, even on a concurrent substrate".
func runConsensus(sc Scale, aut model.Automaton, pattern *model.FailurePattern, hist model.History, seed int64, maxSteps int) (consensusRun, error) {
	sub, err := sc.substrate()
	if err != nil {
		return consensusRun{}, err
	}
	exact := maxSteps < 0
	if exact {
		maxSteps = -maxSteps
	}
	if !sub.Deterministic() && !exact {
		floor := concurrentBudgetFloor
		if perN := aut.N() * concurrentBudgetPerProc; perN > floor {
			floor = perN
		}
		if maxSteps < floor {
			maxSteps = floor
		}
	}
	res, err := sub.Run(context.Background(), aut, hist, pattern, substrate.Options{
		Seed:            seed,
		MaxSteps:        maxSteps,
		StopWhenDecided: true,
		Bus:             sc.Bus,
		Metrics:         sc.Metrics,
	})
	if err != nil {
		return consensusRun{}, err
	}
	if sc.Metrics != nil {
		sc.Metrics.Histogram("consensus.msgs_per_run", obs.DefaultBuckets).Observe(int64(res.MessagesSent))
		sc.Metrics.Histogram("consensus.steps_per_run", obs.DefaultBuckets).Observe(int64(res.Steps))
	}
	return consensusRun{
		Decided:  res.Decided,
		Steps:    res.Steps,
		MaxRound: res.MaxRound,
		Sent:     res.MessagesSent,
		Kinds:    res.SentKinds,
		Outcome:  check.OutcomeFromConfig(res.Config),
	}, nil
}

// avg is a small integer-average helper for table cells.
func avg(sum, n int) string {
	if n == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1f", float64(sum)/float64(n))
}
