package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// resultFile is what -out writes: every workload's metrics, one value per
// run, so the file carries its own spreads.
type resultFile struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	N      int       `json:"n"`
}

// runAll runs every workload, the diagnostic ones included, runs times each
// (seeds seed, seed+1, ...): the end-to-end pass, then the per-layer passes
// and probes.
func runAll(path string, seed int64, seconds, runs int) error {
	if err := inRepoRoot(); err != nil {
		return err
	}
	res := &resultFile{Host: thisHost(), Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadResult{}}
	dur := time.Duration(seconds) * time.Second
	for _, w := range allWorkloads() {
		wr := &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		res.Workloads[w.Name] = wr
		for i := 0; i < runs; i++ {
			for trace, pass := range []func(string, int64, time.Duration) (*outcome, error){passEndToEnd, passLayers} {
				printHeader(w.Name, seed+int64(i), seconds, trace)
				o, err := pass(w.Name, seed+int64(i), dur)
				if err != nil {
					return err
				}
				defs, into := endToEnd, wr.EndToEnd
				if trace == 1 {
					defs, into = perLayer, wr.PerLayer
				}
				printMetrics(defs, o.metrics)
				printVerdict(o.verdict, o.metrics)
				for _, d := range defs {
					v, ok := o.metrics[d.Name]
					if !ok {
						continue // not exercised by this workload
					}
					if into[d.Name] == nil {
						into[d.Name] = &series{Unit: d.Unit}
					}
					into[d.Name].Values, into[d.Name].N = append(into[d.Name].Values, v.Value), v.N
				}
				wr.Attempted += o.verdict.attempted
				wr.Failed += o.verdict.failed
			}
		}
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the interquartile range as a share of the median (0 for a
// single value, which has none), or the range itself when abs is set.
func spread(xs []float64, abs bool) float64 {
	q1, q3 := quartiles(xs)
	if abs || q3 == q1 {
		return q3 - q1
	}
	return (q3 - q1) / math.Abs(median(xs))
}

// judge compares side b against base a for one metric. worsening is how
// far b's median is on the wrong side of a's, as a share of a's (or as an
// absolute difference when abs is set).
func judge(d metricDef, bound float64, abs bool, a, b []float64) (ratio, worsening float64, verdict string) {
	ma, mb := median(a), median(b)
	ratio = math.NaN()
	if ma != 0 {
		ratio = mb / ma
	}
	diff := mb - ma
	if d.Better == "higher" {
		diff = -diff
	}
	worsening = diff
	if !abs && ma != 0 {
		worsening = diff / math.Abs(ma)
	}
	switch {
	case d.Exact:
		if ma != mb {
			return ratio, worsening, "worse"
		}
	case max(spread(a, abs), spread(b, abs)) > bound:
		return ratio, worsening, "unresolved"
	case worsening > bound:
		return ratio, worsening, "worse"
	}
	return ratio, worsening, "ok"
}

// compareFiles prints one row per (workload, bounded metric) of result b
// against base a and reports whether any row is worse. Bounded metrics
// are the end-to-end ones, the client-visible ones in clientBounds, and
// every exact count (which must be equal when the seeds are).
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "# note: seeds/durations differ (%d/%ds vs %d/%ds): exact counts are not comparable\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	fmt.Fprintf(w, "%-11s %-28s %12s %12s %-6s %9s %7s %8s  %s\n", "workload", "metric", "base a", "b", "unit", "b/a", "bound", "spread", "verdict")
	anyWorse := false
	row := func(wl string, d metricDef, bound float64, abs bool, va, vb []float64) {
		ratio, _, verdict := judge(d, bound, abs, va, vb)
		if d.Exact && a.Seed != b.Seed {
			verdict = "ok" // different inputs: listed, not judged
		}
		boundS := fmt.Sprintf("%.0f%%", 100*bound)
		if abs {
			boundS = fmt.Sprintf("%.2fabs", bound)
		}
		if d.Exact {
			boundS = "exact"
		}
		fmt.Fprintf(w, "%-11s %-28s %12.4f %12.4f %-6s %9.4f %7s %7.1f%%  %s\n", wl, d.Name, median(va), median(vb), d.Unit,
			ratio, boundS, 100*max(spread(va, abs), spread(vb, abs)), verdict)
		anyWorse = anyWorse || verdict == "worse"
	}
	for _, wl := range allWorkloads() {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			if sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]; sa != nil && sb != nil {
				row(wl.Name, d, d.Bound, false, sa.Values, sb.Values)
			}
		}
		for _, d := range perLayer {
			cb, bounded := clientBounds[d.Name]
			if !bounded && !d.Exact {
				continue
			}
			if sa, sb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]; sa != nil && sb != nil {
				row(wl.Name, d, cb.bound, cb.abs, sa.Values, sb.Values)
			}
		}
	}
	return anyWorse, nil
}

// printTable renders a result file as the README's baseline table.
func printTable(w io.Writer, path string) error {
	r, err := readResult(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Host: nproc=%d, %s, %s; seed %d, %d s per run, %d run(s) per workload (median shown).\n\n",
		r.Host.NProc, r.Host.CPU, r.Host.Go, r.Seed, r.Seconds, r.Runs)
	fmt.Fprint(w, "| metric | unit |")
	for _, wl := range allWorkloads() {
		fmt.Fprintf(w, " %s |", wl.Name)
	}
	fmt.Fprint(w, "\n|---|---|")
	for range allWorkloads() {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w)
	line := func(name, unit string, cell func(*workloadResult) (float64, bool)) {
		fmt.Fprintf(w, "| `%s` | %s |", name, unit)
		for _, wl := range allWorkloads() {
			if v, ok := cell(r.Workloads[wl.Name]); ok {
				fmt.Fprintf(w, " %.4g |", v)
			} else {
				fmt.Fprint(w, " – |")
			}
		}
		fmt.Fprintln(w)
	}
	for _, part := range []struct {
		defs []metricDef
		of   func(*workloadResult) map[string]*series
	}{
		{endToEnd, func(wr *workloadResult) map[string]*series { return wr.EndToEnd }},
		{perLayer, func(wr *workloadResult) map[string]*series { return wr.PerLayer }},
	} {
		for _, d := range part.defs {
			line(d.Name, d.Unit, func(wr *workloadResult) (float64, bool) {
				if wr == nil || part.of(wr)[d.Name] == nil {
					return 0, false
				}
				return median(part.of(wr)[d.Name].Values), true
			})
		}
	}
	return nil
}
