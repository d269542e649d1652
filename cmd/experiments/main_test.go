package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nuconsensus/internal/experiments"
)

// TestRunUnknownExperiment: an unknown -e ID is a usage error (exit 2).
func TestRunUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-e", "NOPE"}, &out, &errb); code != 2 {
		t.Fatalf("run(-e NOPE) = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("stderr missing diagnosis: %s", errb.String())
	}
}

// TestRunFailingClaimExitsOne: a failed claim exits 1 and says FAIL. A
// test-only spec is registered so the check doesn't depend on breaking a
// real experiment.
func TestRunFailingClaimExitsOne(t *testing.T) {
	experiments.Registry["X1"] = &experiments.Spec{
		ID: "X1", Title: "always fails", Claim: "test-only", Columns: []string{"verdict"},
		Configs: func(experiments.Scale) []experiments.Config { return []experiments.Config{{}} },
		Unit: func(_ experiments.Scale, _ experiments.Config, _ *rand.Rand) experiments.UnitResult {
			return experiments.UnitResult{Fail: true}
		},
		Row: func(experiments.Scale, experiments.Group) []string { return []string{"no"} },
	}
	defer delete(experiments.Registry, "X1")

	var out, errb bytes.Buffer
	if code := run([]string{"-e", "X1"}, &out, &errb); code != 1 {
		t.Fatalf("run(-e X1) = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "FAIL") {
		t.Fatalf("stderr missing FAIL verdict: %s", errb.String())
	}
	if !strings.Contains(out.String(), "verdict: FAIL") {
		t.Fatalf("stdout missing rendered FAIL table:\n%s", out.String())
	}
}

// TestEventsByteIdenticalAcrossParallel is the observability acceptance
// test: on the sim substrate, the -metrics dumps of E1, E2, E17 (the
// rsm.hist.* delta-transport counters) and E18 (the serve.* counters and
// obs.spans, with request tracing on) and the -events JSONL exports of E1
// and E2 (T_{Σν→Σν+}∘A_nuc, whose output events are the composition's) are
// byte-identical at -parallel 1 and -parallel 8 — per-unit registries fold
// commutatively, and the engine replays per-unit event logs into the sinks
// in canonical task order. E1's -trace export must be valid Chrome trace_event JSON
// with one flow finish per flow start.
func TestEventsByteIdenticalAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		id     string
		events bool
		metric string // a JSONL fragment the dump must carry
	}{
		{"E1", true, `"name":"bus.steps","kind":"counter"`},
		{"E2", true, `"name":"msgs.sent.DAG","kind":"counter"`},
		{"E17", false, `"name":"rsm.hist.delta_hits","kind":"counter"`},
		{"E18", false, `"name":"obs.spans","kind":"counter"`},
	} {
		dump := func(par string) (events, metrics []byte) {
			t.Helper()
			base := filepath.Join(dir, tc.id+"-"+par)
			args := []string{"-e", tc.id, "-parallel", par, "-metrics", base + ".metrics"}
			if tc.events {
				args = append(args, "-events", base+".jsonl")
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("run(%v) = %d (stderr: %s)", args, code, errb.String())
			}
			metrics, err := os.ReadFile(base + ".metrics")
			if err != nil {
				t.Fatal(err)
			}
			if tc.events {
				if events, err = os.ReadFile(base + ".jsonl"); err != nil {
					t.Fatal(err)
				}
			}
			return events, metrics
		}
		ev1, me1 := dump("1")
		ev8, me8 := dump("8")
		if !bytes.Contains(me1, []byte(tc.metric)) {
			t.Errorf("%s: -metrics dump lacks %q:\n%s", tc.id, tc.metric, me1)
		}
		if !bytes.Equal(me1, me8) {
			t.Errorf("%s: -metrics dump differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", tc.id, me1, me8)
		}
		if tc.events && len(ev1) == 0 {
			t.Errorf("%s: -events export is empty", tc.id)
		}
		if !bytes.Equal(ev1, ev8) {
			t.Errorf("%s: -events JSONL differs between -parallel 1 (%d bytes) and -parallel 8 (%d bytes)", tc.id, len(ev1), len(ev8))
		}
	}

	tr := filepath.Join(dir, "e1.trace.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-e", "E1", "-trace", tr}, &out, &errb); code != 0 {
		t.Fatalf("run(-e E1 -trace) = %d (stderr: %s)", code, errb.String())
	}
	raw, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID uint64 `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace output is not valid Chrome trace JSON: %v", err)
	}
	starts, finishes := map[uint64]int{}, map[uint64]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			starts[ev.ID]++
		case "f":
			finishes[ev.ID]++
		}
	}
	if len(starts) == 0 {
		t.Fatal("trace has no flow arrows at all")
	}
	for id, n := range finishes {
		if starts[id] < n {
			t.Errorf("flow id %d: %d finishes but only %d starts", id, n, starts[id])
		}
	}
}

// TestRunJSONOutput: -json writes a parseable report alongside the rendered
// stdout tables.
func TestRunJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-e", "E7", "-parallel", "2", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("run(-e E7 -json) = %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "## E7") {
		t.Fatalf("stdout missing rendered table:\n%s", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(rep.Tables) != 1 || rep.Tables[0].ID != "E7" {
		t.Fatalf("report content wrong: %+v", rep)
	}
	if !rep.Pass || rep.Workers != 2 {
		t.Fatalf("report metadata wrong: pass=%v workers=%d", rep.Pass, rep.Workers)
	}
}
