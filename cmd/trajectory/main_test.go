package main

import (
	"bufio"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestTrajectoryFileParses: every row of the committed trajectory file
// parses, names a metric BENCHMARK.json declares, keeps its quartiles in
// order and counts no more wins than pairs. It checks the format only: no
// row is compared with a wall-clock bound.
func TestTrajectoryFileParses(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		declared[d.Name] = true
	}
	f, err := os.Open("../../testdata/trajectory.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != header {
		t.Fatalf("first line %q, want the header %q", sc.Text(), header)
	}
	rowsSeen := 0
	for n := 2; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseRow(line)
		switch {
		case err != nil:
			t.Errorf("line %d: %v", n, err)
		case r.Tag == "" || r.Workload == "" || r.Host == "":
			t.Errorf("line %d: empty tag, workload or host", n)
		case !declared[r.Metric]:
			t.Errorf("line %d: metric %q is not in BENCHMARK.json", n, r.Metric)
		case r.Pairs < 1 || r.Wins < 0 || r.Wins > r.Pairs:
			t.Errorf("line %d: %d wins of %d pairs", n, r.Wins, r.Pairs)
		case !ordered(r.Base) || !ordered(r.Change):
			t.Errorf("line %d: quartiles out of order: base %v, change %v", n, r.Base, r.Change)
		}
		rowsSeen++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rowsSeen == 0 {
		t.Fatal("the trajectory file has no rows")
	}
}

func ordered(q [3]float64) bool { return q[0] <= q[1] && q[1] <= q[2] }

// TestRowRoundTrip: a row of six-digit values, written by the command,
// reads back unchanged.
func TestRowRoundTrip(t *testing.T) {
	want := row{Tag: "t", Workload: "steady_mix", Seed: 1, Pairs: 10, Metric: "bytes_per_slot",
		Base: [3]float64{101.933, 102.03, 102.158}, Change: [3]float64{72.56, 72.795, 72.8775},
		Wins: 10, Host: `nproc=2 cpu="x" go1.24.0`}
	got, err := parseRow(want.String())
	if err != nil || got != want {
		t.Fatalf("parseRow(%q) = %+v, %v; want %+v", want.String(), got, err, want)
	}
	if _, err := parseRow("too\tfew"); err == nil {
		t.Error("a two-field line parsed")
	}
}

// TestQuartiles interpolates linearly between order statistics: ten
// values put the quartiles a quarter of the way between neighbours.
func TestQuartiles(t *testing.T) {
	xs := []float64{101.95, 101.94, 102.15, 100.82, 101.62, 101.93, 102.16, 102.44, 102.38, 102.11}
	want := [3]float64{101.9325, 102.03, 102.1575}
	got := quartiles(xs)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("quartiles = %v, want %v", got, want)
		}
	}
	if got := quartiles([]float64{3}); got != [3]float64{3, 3, 3} {
		t.Errorf("quartiles of one value = %v, want it three times", got)
	}
}

// TestSchedule: the end-to-end pairs alternate which tree runs first, and
// the traced passes run base, change, change, base, so each tree runs
// first in one traced pair and second in the other.
func TestSchedule(t *testing.T) {
	b, c := pass{}, pass{change: true}
	bt, ct := pass{traced: true}, pass{change: true, traced: true}
	want := []pass{b, c, c, b, b, c, bt, ct, ct, bt}
	if got := schedule(3); !reflect.DeepEqual(got, want) {
		t.Errorf("schedule(3) = %v, want %v", got, want)
	}
	for pairs := 1; pairs <= 10; pairs++ {
		n := map[pass]int{}
		for _, p := range schedule(pairs) {
			n[p]++
		}
		if n[b] != pairs || n[c] != pairs || n[bt] != 2 || n[ct] != 2 {
			t.Errorf("schedule(%d) runs %v", pairs, n)
		}
	}
}
