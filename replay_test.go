package nuconsensus_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nuconsensus"
)

func TestRecordAndReplay(t *testing.T) {
	pattern := nuconsensus.Crashes(4, map[nuconsensus.ProcessID]nuconsensus.Time{1: 30})
	hist := nuconsensus.Pair(
		nuconsensus.Omega(pattern, 60, 9),
		nuconsensus.SigmaNuPlus(pattern, 60, 9),
	)
	opts := nuconsensus.SimOptions{
		Automaton:       nuconsensus.ANuc([]int{0, 1, 1, 0}),
		Pattern:         pattern,
		History:         hist,
		Seed:            9,
		StopWhenDecided: true,
	}
	res, rec, err := nuconsensus.SimulateRecorded(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatal("baseline run did not decide")
	}
	if len(rec.Choices) != res.Steps {
		t.Fatalf("recorded %d choices for %d steps", len(rec.Choices), res.Steps)
	}

	// Round-trip through JSON on disk.
	path := filepath.Join(t.TempDir(), "run.json")
	if err := nuconsensus.SaveRecordedRun(path, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := nuconsensus.LoadRecordedRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, rec) {
		t.Fatal("record did not survive the JSON round trip")
	}

	// Replay must land on the same decisions in the same number of steps.
	opts2 := opts
	opts2.MaxSteps = len(loaded.Choices)
	replayed, err := nuconsensus.Replay(opts2, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.Decisions, res.Decisions) {
		t.Fatalf("replay decisions %v, want %v", replayed.Decisions, res.Decisions)
	}
}

// TestRecordHonoursGST: a recorded run is the run Simulate makes under the
// same options, GST included — a partially synchronous run is not recorded
// as the GST = 0 one — and Replay of its record, under those options,
// reproduces it.
func TestRecordHonoursGST(t *testing.T) {
	opts := nuconsensus.SimOptions{
		Automaton:       nuconsensus.OracleFreeANuc([]int{0, 1, 1}, 1),
		Pattern:         nuconsensus.Crashes(3, map[nuconsensus.ProcessID]nuconsensus.Time{2: 100}),
		Seed:            3,
		StopWhenDecided: true,
		GST:             400,
	}
	want, err := nuconsensus.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Decided {
		t.Fatal("the simulated run did not decide")
	}
	got, rec, err := nuconsensus.SimulateRecorded(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != want.Steps || !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Fatalf("recorded run: %d steps deciding %v; Simulate: %d steps deciding %v", got.Steps, got.Decisions, want.Steps, want.Decisions)
	}
	replayed, err := nuconsensus.Replay(opts, rec)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Steps != want.Steps || !reflect.DeepEqual(replayed.Decisions, want.Decisions) {
		t.Fatalf("replay: %d steps deciding %v; want %d steps deciding %v", replayed.Steps, replayed.Decisions, want.Steps, want.Decisions)
	}
}

func TestReplayRejectsSizeMismatch(t *testing.T) {
	pattern := nuconsensus.Crashes(3, nil)
	rec := &nuconsensus.RecordedRun{N: 4}
	_, err := nuconsensus.Replay(nuconsensus.SimOptions{
		Automaton: nuconsensus.ANuc([]int{0, 1, 1}),
		Pattern:   pattern,
	}, rec)
	if err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestLoadRecordedRunErrors(t *testing.T) {
	if _, err := nuconsensus.LoadRecordedRun(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := nuconsensus.SaveRecordedRun(bad, &nuconsensus.RecordedRun{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt it.
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := nuconsensus.LoadRecordedRun(bad); err == nil {
		t.Error("corrupted file must error")
	}
}

func TestLoadRecordedRunTruncated(t *testing.T) {
	// A record cut off mid-JSON (e.g. a crash while writing, or a partial
	// artifact download) must be rejected, not read as a shorter schedule.
	path := filepath.Join(t.TempDir(), "run.json")
	p0 := nuconsensus.ProcessID(0)
	rec := &nuconsensus.RecordedRun{
		N: 3,
		Choices: []nuconsensus.SchedulingChoice{
			{P: 0, Deliver: false},
			{P: 1, Deliver: true, From: &p0},
			{P: 2, Deliver: true},
		},
	}
	if err := nuconsensus.SaveRecordedRun(path, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := nuconsensus.LoadRecordedRun(path); err == nil {
		t.Error("truncated file must error")
	}
}

func TestLoadRecordedRunUnknownKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeFile(path, `{"kind":"bogus/run/v9","n":3,"seed":1,"choices":[]}`); err != nil {
		t.Fatal(err)
	}
	_, err := nuconsensus.LoadRecordedRun(path)
	if err == nil {
		t.Fatal("unknown payload kind must error")
	}
	if !strings.Contains(err.Error(), "unknown payload kind") {
		t.Errorf("error %q should name the unknown payload kind", err)
	}

	// SaveRecordedRun stamps the current kind, and a stamped record loads.
	rec := &nuconsensus.RecordedRun{N: 2}
	if err := nuconsensus.SaveRecordedRun(path, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Kind != nuconsensus.RecordedRunKind {
		t.Errorf("SaveRecordedRun stamped kind %q, want %q", rec.Kind, nuconsensus.RecordedRunKind)
	}
	loaded, err := nuconsensus.LoadRecordedRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != nuconsensus.RecordedRunKind {
		t.Errorf("loaded kind %q, want %q", loaded.Kind, nuconsensus.RecordedRunKind)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
