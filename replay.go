package nuconsensus

import (
	"encoding/json"
	"fmt"
	"os"

	"nuconsensus/internal/explore"
	"nuconsensus/internal/model"
	"nuconsensus/internal/sim"
	"nuconsensus/internal/substrate"
)

// SchedulingChoice is one recorded scheduler decision: which process
// stepped and whether it received the oldest pending message. A sequence of
// choices, together with the automaton, pattern, history and their seeds,
// replays an execution bit for bit — executions are deterministic functions
// of these inputs.
type SchedulingChoice struct {
	P       ProcessID `json:"p"`
	Deliver bool      `json:"deliver"`
	// From, when present, names the sender whose oldest pending message is
	// received (per-link FIFO). Absent means oldest over all senders, which
	// is what the fair scheduler records; the explorer's shrunk
	// counterexamples pin the link explicitly.
	From *ProcessID `json:"from,omitempty"`
}

// RecordedRunKind tags the on-disk payload format of a RecordedRun.
// LoadRecordedRun rejects files carrying any other kind, so a future format
// change cannot be silently misread as a schedule.
const RecordedRunKind = "nuconsensus/run/v1"

// RecordedRun is a persistable execution record.
type RecordedRun struct {
	Kind    string             `json:"kind,omitempty"`
	N       int                `json:"n"`
	Seed    int64              `json:"seed"`
	Choices []SchedulingChoice `json:"choices"`
}

// SimulateRecorded runs like Simulate but also captures the scheduling
// choices, so the execution can be replayed (and, e.g., a contamination
// counterexample attached to a bug report).
func SimulateRecorded(opts SimOptions) (*SimResult, *RecordedRun, error) {
	x := simExec(opts, 50000)
	x.KeepSchedule = true
	res, err := sim.Run(x)
	if err != nil {
		return nil, nil, err
	}
	rec := &RecordedRun{N: opts.Automaton.N(), Seed: opts.Seed}
	for _, e := range res.Schedule {
		rec.Choices = append(rec.Choices, SchedulingChoice{P: e.P, Deliver: e.M != nil})
	}
	return fromSubstrate(res), rec, nil
}

// Replay re-executes a recorded run: the same automaton, pattern, history
// and GST must be supplied (they are not part of the record); the recorded
// choices drive the scheduler, with Simulate's scheduler for the record's
// seed as the fallback past the end of the script.
func Replay(opts SimOptions, rec *RecordedRun) (*SimResult, error) {
	if rec.N != opts.Automaton.N() {
		return nil, fmt.Errorf("nuconsensus: record is for n=%d but automaton has n=%d", rec.N, opts.Automaton.N())
	}
	script := make([]sim.Choice, len(rec.Choices))
	for i, c := range rec.Choices {
		script[i] = sim.Choice{P: c.P, Deliver: c.Deliver, From: c.From}
	}
	opts.Seed = rec.Seed
	x := simExec(opts, len(script))
	x.Scheduler = &sim.ScriptedScheduler{Script: script, Fallback: x.Scheduler}
	res, err := sim.Run(x)
	if err != nil {
		return nil, err
	}
	return fromSubstrate(res), nil
}

// RecordedFromSchedule converts a schedule found by the bounded model
// checker (internal/explore) into a replayable record: each explorer
// choice becomes a scheduling choice that delivers the oldest message on
// the same link (or takes a λ step). The record carries no FD values —
// Replay reads those from SimOptions.History, so the caller must replay
// against the history the schedule was explored under: the scenario's own
// history for single-history menus, or explore.PinnedHistory(menu, path,
// fallback) when the menu offered the adversary several values.
func RecordedFromSchedule(n int, schedule []explore.Choice) *RecordedRun {
	rec := &RecordedRun{Kind: RecordedRunKind, N: n}
	for _, ch := range schedule {
		sc := SchedulingChoice{P: ch.P, Deliver: ch.From != model.NoProcess}
		if sc.Deliver {
			from := ch.From
			sc.From = &from
		}
		rec.Choices = append(rec.Choices, sc)
	}
	return rec
}

// SaveRecordedRun writes a record as JSON, stamping RecordedRunKind if the
// record does not carry a kind yet.
func SaveRecordedRun(path string, rec *RecordedRun) error {
	if rec.Kind == "" {
		rec.Kind = RecordedRunKind
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadRecordedRun reads a record written by SaveRecordedRun.
func LoadRecordedRun(path string) (*RecordedRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec RecordedRun
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("nuconsensus: parsing %s: %w", path, err)
	}
	// A missing kind is accepted for records written before the tag existed;
	// anything else must match exactly.
	if rec.Kind != "" && rec.Kind != RecordedRunKind {
		return nil, fmt.Errorf("nuconsensus: %s: unknown payload kind %q (want %q)", path, rec.Kind, RecordedRunKind)
	}
	return &rec, nil
}

// simExec is the execution opts describes on the step simulator: the
// scheduler its Seed and GST select (sim.SchedulerFor), its step budget —
// maxSteps when MaxSteps is unset — and, if asked, the stop once every
// correct process decided.
func simExec(opts SimOptions, maxSteps int) sim.Exec {
	if opts.MaxSteps > 0 {
		maxSteps = opts.MaxSteps
	}
	var stop func(*model.Configuration, model.Time) bool
	if opts.StopWhenDecided {
		stop = substrate.AllCorrectDecided(opts.Pattern)
	}
	return sim.Exec{
		Automaton: opts.Automaton,
		Pattern:   opts.Pattern,
		History:   historyOrNull(opts.History),
		Scheduler: sim.SchedulerFor(substrate.Options{Seed: opts.Seed, GST: opts.GST}),
		MaxSteps:  maxSteps,
		StopWhen:  stop,
	}
}

func historyOrNull(h History) History {
	if h == nil {
		return nullHistory()
	}
	return h
}
