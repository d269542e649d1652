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
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"}
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

// TestFastExperimentsPass runs the cheap experiments end to end; the
// expensive DAG-extraction ones run in short form only when -short is not
// set.
func TestFastExperimentsPass(t *testing.T) {
	fast := []string{"E1", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E18", "Q1", "Q2", "Q5", "Q7"}
	for _, id := range fast {
		id := id
		t.Run(id, func(t *testing.T) {
			table := Registry[id].Run(tiny)
			if !table.Pass {
				t.Fatalf("%s failed:\n%s", id, table.Render())
			}
		})
	}
}

func TestSlowExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping DAG-extraction experiments in -short mode")
	}
	slow := []string{"E2", "E3", "E6", "Q6", "E16"}
	for _, id := range slow {
		id := id
		t.Run(id, func(t *testing.T) {
			table := Registry[id].Run(tiny)
			if !table.Pass {
				t.Fatalf("%s failed:\n%s", id, table.Render())
			}
		})
	}
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
