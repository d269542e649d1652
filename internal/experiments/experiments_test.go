package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// tiny is the smallest scale that still exercises each experiment's logic.
var tiny = Scale{Seeds: 1, MaxSteps: 30000}

// TestRegistryComplete pins the registry itself: IDs() lists the
// canonical order and every Registry entry carries its own key as ID.
// TestExperimentsMDCoverage holds the registry against the document.
func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
	for id, sp := range Registry {
		if sp.ID != id {
			t.Errorf("Registry[%q].ID = %q", id, sp.ID)
		}
	}
}

// TestExperimentsMDCoverage is the one registry ⇔ EXPERIMENTS.md check:
// the document's summary rows and its "## <ID> —" section headings each
// name exactly the registered experiments. A Spec that is documented but
// not registered fails here; one that is neither cannot change a table.
func TestExperimentsMDCoverage(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []struct {
		what string
		rx   *regexp.Regexp
	}{
		{"summary", regexp.MustCompile(`(?m)^\| ([EQ]\d+) \|`)},
		{"section headings", regexp.MustCompile(`(?m)^## ([EQ]\d+) —`)},
	} {
		documented := map[string]bool{}
		for _, m := range doc.rx.FindAllStringSubmatch(string(raw), -1) {
			documented[m[1]] = true
		}
		if len(documented) == 0 {
			t.Fatalf("found no experiment IDs in EXPERIMENTS.md's %s — format changed?", doc.what)
		}
		for id := range documented {
			if _, ok := Registry[id]; !ok {
				t.Errorf("EXPERIMENTS.md's %s names %s but the registry does not implement it", doc.what, id)
			}
		}
		for id := range Registry {
			if !documented[id] {
				t.Errorf("registry implements %s but EXPERIMENTS.md's %s does not name it", id, doc.what)
			}
		}
	}
}

// speed classifies every registered experiment for the two pass tests:
// the slow ones (DAG extraction, long hunts, exhaustive search) are
// skipped under -short.
var speed = map[string]string{
	"E1": "fast", "E2": "slow", "E3": "slow", "E4": "slow", "E5": "slow", "E6": "slow",
	"E7": "fast", "E8": "fast", "E9": "fast", "E10": "fast", "E11": "fast", "E12": "fast",
	"E13": "fast", "E14": "fast", "E15": "fast", "E16": "slow", "E17": "fast", "E18": "fast",
	"Q1": "fast", "Q2": "fast", "Q3": "slow", "Q4": "slow", "Q5": "fast", "Q6": "slow",
}

// runClaims runs every registered experiment of one speed at the tiny
// scale and requires its claim to hold; an unclassified ID fails.
func runClaims(t *testing.T, want string) {
	for _, id := range IDs() {
		s, ok := speed[id]
		if !ok {
			t.Errorf("%s is classified neither fast nor slow in speed", id)
		}
		if s != want {
			continue
		}
		t.Run(id, func(t *testing.T) {
			if want == "slow" {
				t.Parallel()
			}
			if table := Registry[id].Run(tiny); !table.Pass {
				t.Fatalf("%s failed:\n%s", id, table.Render())
			}
		})
	}
}

// TestFastExperimentsPass runs the cheap experiments end to end.
func TestFastExperimentsPass(t *testing.T) { runClaims(t, "fast") }

// TestSlowExperimentsPass runs the expensive ones, in parallel, unless
// -short is set.
func TestSlowExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping DAG-extraction experiments in -short mode")
	}
	runClaims(t, "slow")
}

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:      "X1",
		Title:   "demo",
		Claim:   "something",
		Columns: []string{"a", "b"},
		Pass:    true,
		Notes:   []string{"note"},
	}
	tb.AddRow("1", "2")
	out := tb.Render()
	for _, want := range []string{"## X1", "| a | b |", "| 1 | 2 |", "- note", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

func TestAvg(t *testing.T) {
	if got := avg(10, 4); got != "2.5" {
		t.Errorf("avg = %q", got)
	}
	if got := avg(10, 0); got != "—" {
		t.Errorf("avg with zero runs = %q", got)
	}
}

func TestRandomPattern(t *testing.T) {
	tab := Registry["E9"].Run(tiny) // also doubles as a quick E9 sanity check
	if !tab.Pass {
		t.Fatalf("E9 failed:\n%s", tab.Render())
	}
}
