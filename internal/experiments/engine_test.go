package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestRunAllDeterministic is the engine's core guarantee: the rendered
// tables are byte-identical whether units run sequentially, on 1 worker, or
// on 8 workers with arbitrary interleavings. A sample of cheap experiments
// keeps the test fast while covering RNG-drawing grids (E1, E8), per-unit
// rows (E7, E9, E10), cross-row finalizers (E14), each shared run shape —
// consensus outcome (E1), heartbeat history (E13), replicated log with a
// folded per-unit registry (E17, E18) — and a row that spans both
// contestants of a hunt (Q4).
func TestRunAllDeterministic(t *testing.T) {
	ids := []string{"E1", "E7", "E8", "E9", "E10", "E13", "E14", "E15", "E17", "E18", "Q4"}
	render := func(tables []Table) string {
		var b bytes.Buffer
		for _, tb := range tables {
			b.WriteString(tb.Render())
		}
		return b.String()
	}

	seq := make([]Table, 0, len(ids))
	for _, id := range ids {
		seq = append(seq, Registry[id].Run(tiny))
	}
	one, err := RunIDs(context.Background(), ids, tiny, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunIDs(context.Background(), ids, tiny, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := render(one), render(seq); got != want {
		t.Errorf("RunIDs(workers=1) differs from sequential Spec.Run output:\n--- parallel ---\n%s\n--- sequential ---\n%s", got, want)
	}
	if got, want := render(eight), render(one); got != want {
		t.Errorf("RunIDs(workers=8) differs from RunIDs(workers=1):\n--- 8 workers ---\n%s\n--- 1 worker ---\n%s", got, want)
	}
}

// TestRunIDsUnknown rejects unknown experiment IDs up front.
func TestRunIDsUnknown(t *testing.T) {
	if _, err := RunIDs(context.Background(), []string{"E999"}, tiny, Options{Workers: 1}); err == nil {
		t.Fatal("RunIDs accepted an unknown experiment ID")
	}
}

// TestRunIDsCancelled propagates context cancellation out of the pool.
func TestRunIDsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunIDs(ctx, []string{"E1"}, tiny, Options{Workers: 2}); err != context.Canceled {
		t.Fatalf("RunIDs on a cancelled context returned %v, want context.Canceled", err)
	}
}

// TestDeriveSeed checks the unit-RNG derivation is pure, sensitive to every
// tuple component, and non-negative (rand.NewSource accepts any int64, but
// non-negativity keeps logs readable).
func TestDeriveSeed(t *testing.T) {
	base := Config{Label: "x", N: 5, F: 2, Arg: 7, Seed: 3}
	if got, again := DeriveSeed("E1", base), DeriveSeed("E1", base); got != again {
		t.Fatalf("DeriveSeed is not pure: %d vs %d", got, again)
	}
	if DeriveSeed("E1", base) < 0 {
		t.Fatal("DeriveSeed returned a negative seed")
	}
	variants := []Config{
		{Label: "y", N: 5, F: 2, Arg: 7, Seed: 3},
		{Label: "x", N: 6, F: 2, Arg: 7, Seed: 3},
		{Label: "x", N: 5, F: 3, Arg: 7, Seed: 3},
		{Label: "x", N: 5, F: 2, Arg: 8, Seed: 3},
		{Label: "x", N: 5, F: 2, Arg: 7, Seed: 4},
	}
	for _, v := range variants {
		if DeriveSeed("E1", v) == DeriveSeed("E1", base) {
			t.Errorf("DeriveSeed collision between %+v and %+v", v, base)
		}
	}
	if DeriveSeed("E2", base) == DeriveSeed("E1", base) {
		t.Error("DeriveSeed ignores the experiment ID")
	}
}

// TestReportJSON round-trips the machine-readable report.
func TestReportJSON(t *testing.T) {
	tb := Registry["E7"].Run(tiny)
	rep := NewReport([]Table{tb}, tiny, 4, 123*time.Millisecond)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(back.Tables) != 1 || back.Tables[0].ID != "E7" || back.Workers != 4 {
		t.Fatalf("report round-trip mangled data: %+v", back)
	}
	if back.Pass != tb.Pass {
		t.Fatalf("report Pass = %v, table Pass = %v", back.Pass, tb.Pass)
	}
	if len(back.Tables[0].Rows) == 0 || len(back.Tables[0].RowTimes) != len(back.Tables[0].Rows) {
		t.Fatalf("report rows/timing inconsistent: %d rows, %d row times",
			len(back.Tables[0].Rows), len(back.Tables[0].RowTimes))
	}
}
