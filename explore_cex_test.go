package nuconsensus_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nuconsensus"
	"nuconsensus/internal/explore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// e6GoldenPath pins the shrunk contamination counterexample byte for byte:
// the schedule the explorer finds for E6's naive-MR failure is itself a
// deterministic artifact, so any drift in the engine, the reduction or the
// shrinker shows up as a golden diff. Regenerate with `go test -run
// TestExploreFindsContamination -update .` and review the new schedule.
const e6GoldenPath = "testdata/e6_counterexample.json"

// TestExploreFindsContamination is the exhaustive counterpart of
// experiment E6: the bounded model checker must find the naive-MR+Σν
// contamination, the shrinker must reduce it to a minimal schedule, the
// schedule must match the pinned golden record byte for byte, and
// replaying that record through the ordinary Replay path must reproduce
// the agreement violation.
func TestExploreFindsContamination(t *testing.T) {
	sc := explore.Contamination()
	o := sc.Opts
	o.Bound = sc.Bound
	res, err := explore.Explore(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 || res.Counterexample == nil {
		t.Fatalf("exhaustive search found no contamination: %+v", res)
	}
	if res.Reduction < 2 {
		t.Errorf("reduction %f < 2x over naive enumeration", res.Reduction)
	}
	shrunk := explore.Shrink(o, res.Counterexample.Path)
	if len(shrunk) > len(res.Counterexample.Path) {
		t.Errorf("shrinking grew the schedule: %d -> %d", len(res.Counterexample.Path), len(shrunk))
	}
	if len(shrunk) > 31 {
		t.Errorf("shrunk schedule has %d steps; the hand-derived contamination needs at most 31", len(shrunk))
	}

	rec := nuconsensus.RecordedFromSchedule(3, shrunk)
	tmp := filepath.Join(t.TempDir(), "cex.json")
	if err := nuconsensus.SaveRecordedRun(tmp, rec); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(e6GoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(e6GoldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("shrunk counterexample drifted from golden %s (run with -update and review):\ngot:\n%s\nwant:\n%s",
			e6GoldenPath, got, want)
	}

	// The golden record replays to the violation through the ordinary
	// replay path: both correct processes decide, and they disagree.
	loaded, err := nuconsensus.LoadRecordedRun(e6GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := nuconsensus.Replay(nuconsensus.SimOptions{
		Automaton: nuconsensus.MRNaiveNu([]int{0, 1, 1}),
		Pattern:   nuconsensus.Crashes(3, map[nuconsensus.ProcessID]nuconsensus.Time{2: 5}),
		History:   sc.History,
	}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	v0, ok0 := replayed.Decisions[0]
	v1, ok1 := replayed.Decisions[1]
	if !ok0 || !ok1 || v0 == v1 {
		t.Errorf("replay did not reproduce the contamination: decisions %v", replayed.Decisions)
	}
}
