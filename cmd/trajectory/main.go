// Command trajectory records the served benchmark as rows rather than prose.
// It builds a base commit from `git archive` into a temp dir, runs
// `bash bench/run.sh` there and in the work tree in alternating pairs, and
// appends one tab-separated row per metric to a trajectory file: the
// base's median and quartiles, the change's median and quartiles, the
// number of pairs the change won, and bench's host line.
//
// Each pair is an end-to-end pass (--trace 0), the first tree of a pair
// alternating so drift over the session cancels; two traced passes
// (--trace 1) of each tree follow in the order base, change, change, base,
// so neither tree always runs first (schedule). The rows kept are
// BENCHMARK.json's end-to-end metrics from the pairs, and from the traced
// passes (two pairs) every per-layer metric they report — times, counts
// and bytes alike, so a byte claim keeps its per-layer split. A row's tag
// is the work tree's short commit, with a + when it has uncommitted
// changes. A run that fails verification appends nothing. bench is only
// called, never changed.
//
// Usage (from the repository root; `make trajectory` wraps it):
//
//	trajectory -base HEAD~1 -workload steady_mix -seed 1 -pairs 10 -seconds 24 \
//	           -out testdata/trajectory.tsv
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// header is the trajectory file's first line.
const header = "tag\tworkload\tseed\tpairs\tmetric\tbase_med\tbase_q1\tbase_q3\tchange_med\tchange_q1\tchange_q3\twins\thost"

// row is one metric of one trajectory run. Base and Change hold the first
// quartile, the median and the third quartile of the pairs' values.
type row struct {
	Tag, Workload string
	Seed          int64
	Pairs         int
	Metric        string
	Base, Change  [3]float64
	Wins          int
	Host          string
}

// String renders r as a line of the trajectory file, without the newline.
func (r row) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	return strings.Join([]string{
		r.Tag, r.Workload, strconv.FormatInt(r.Seed, 10), strconv.Itoa(r.Pairs), r.Metric,
		f(r.Base[1]), f(r.Base[0]), f(r.Base[2]), f(r.Change[1]), f(r.Change[0]), f(r.Change[2]),
		strconv.Itoa(r.Wins), r.Host,
	}, "\t")
}

// parseRow reads one line of the trajectory file back.
func parseRow(line string) (row, error) {
	f := strings.Split(line, "\t")
	if len(f) != strings.Count(header, "\t")+1 {
		return row{}, fmt.Errorf("%d fields, want %d", len(f), strings.Count(header, "\t")+1)
	}
	r := row{Tag: f[0], Workload: f[1], Metric: f[4], Host: f[12]}
	var errs []error
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		errs = append(errs, err)
		return v
	}
	var err error
	r.Seed, err = strconv.ParseInt(f[2], 10, 64)
	errs = append(errs, err)
	r.Pairs, err = strconv.Atoi(f[3])
	errs = append(errs, err)
	r.Base = [3]float64{num(f[6]), num(f[5]), num(f[7])}
	r.Change = [3]float64{num(f[9]), num(f[8]), num(f[10])}
	r.Wins, err = strconv.Atoi(f[11])
	errs = append(errs, err)
	return r, errors.Join(errs...)
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// metricDef is the part of a BENCHMARK.json metric entry the rows need.
type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// benchmarkSpec is the part of BENCHMARK.json the rows need.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	return &s, json.Unmarshal(b, &s)
}

// pass is one bench run of a trajectory: which tree it runs on, and
// whether it is traced.
type pass struct {
	change, traced bool
}

// schedule is the order of a trajectory's bench runs: pairs end-to-end
// pairs, the base first in the even ones and the change first in the odd
// ones, then the traced passes base, change, change, base. Each side's
// k-th pass of a kind pairs with the other side's k-th.
func schedule(pairs int) []pass {
	var out []pass
	for i := 0; i < pairs; i++ {
		first := i%2 == 1
		out = append(out, pass{change: first}, pass{change: !first})
	}
	return append(out, pass{traced: true}, pass{change: true, traced: true}, pass{change: true, traced: true}, pass{traced: true})
}

// result is one bench run: its metric values and host line.
type result struct {
	metrics map[string]float64
	host    string
}

// runBench runs one pass of bench/run.sh in dir. Its report goes to stderr
// as it comes; a run that fails verification is an error.
func runBench(dir, workload string, seed int64, seconds, trace int) (*result, error) {
	var out bytes.Buffer
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, io.MultiWriter(&out, os.Stderr), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench in %s: %w", dir, err)
	}
	res := &result{metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if h, ok := strings.CutPrefix(sc.Text(), "# host: "); ok {
			res.host = h
		}
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("bench in %s: last line is not its JSON result: %w", dir, err)
	}
	if !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("bench in %s: %d operations failed verification", dir, line.Failed)
	}
	for name, m := range line.Metrics {
		res.metrics[name] = m.Value
	}
	return res, nil
}

// rows summarises paired runs of the metrics in defs; a metric that reads
// 0 in every run is one the workload does not exercise and gets no row.
func rows(defs []metricDef, base, change []*result) []row {
	var out []row
	for _, d := range defs {
		var b, c []float64
		wins, seen := 0, false
		for i := range base {
			bv, cv := base[i].metrics[d.Name], change[i].metrics[d.Name]
			b, c = append(b, bv), append(c, cv)
			seen = seen || bv != 0 || cv != 0
			if (d.Better == "lower" && cv < bv) || (d.Better == "higher" && cv > bv) {
				wins++
			}
		}
		if seen {
			out = append(out, row{Metric: d.Name, Pairs: len(base), Base: quartiles(b), Change: quartiles(c), Wins: wins})
		}
	}
	return out
}

func main() {
	base := flag.String("base", "HEAD~1", "the git revision the work tree is compared against")
	workload := flag.String("workload", "steady_mix", "bench workload")
	seed := flag.Int64("seed", 1, "bench seed")
	pairs := flag.Int("pairs", 10, "end-to-end pairs to run")
	seconds := flag.Int("seconds", 24, "bench --seconds of each pass")
	out := flag.String("out", "testdata/trajectory.tsv", "trajectory file to append to")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("trajectory: ")
	if *pairs < 1 {
		log.Fatal("-pairs must be at least 1")
	}
	tag := workTreeTag()
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "trajectory-base-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	archive := exec.Command("bash", "-c", `git archive "$1" | tar -x -C "$2"`, "archive", *base, dir)
	archive.Stderr = os.Stderr
	if err := archive.Run(); err != nil {
		log.Fatalf("git archive %s: %v", *base, err)
	}

	// runs[p] are the results of the passes like p, in order.
	runs := map[pass][]*result{}
	plan := schedule(*pairs)
	for i, p := range plan {
		tree, trace, side := dir, 0, "base"
		if p.change {
			tree, side = ".", "change"
		}
		if p.traced {
			trace = 1
		}
		log.Printf("pass %d/%d: %s, --trace %d", i+1, len(plan), side, trace)
		r, err := runBench(tree, *workload, *seed, *seconds, trace)
		if err != nil {
			os.RemoveAll(dir)
			log.Fatal(err)
		}
		runs[p] = append(runs[p], r)
	}
	bs, cs := runs[pass{}], runs[pass{change: true}]

	all := append(rows(spec.EndToEnd, bs, cs), rows(spec.PerLayer, runs[pass{traced: true}], runs[pass{change: true, traced: true}])...)

	f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		fmt.Fprintln(w, header)
	}
	for _, r := range all {
		r.Tag, r.Workload, r.Seed, r.Host = tag, *workload, *seed, cs[0].host
		fmt.Fprintln(w, r)
	}
	if err := errors.Join(w.Flush(), f.Close()); err != nil {
		log.Fatal(err)
	}
	for _, r := range all {
		fmt.Printf("%-28s base %10.4g (%.4g–%.4g)  change %10.4g (%.4g–%.4g)  wins %d/%d\n",
			r.Metric, r.Base[1], r.Base[0], r.Base[2], r.Change[1], r.Change[0], r.Change[2], r.Wins, r.Pairs)
	}
	log.Printf("appended %d rows to %s", len(all), *out)
}

// workTreeTag names the work tree: its short commit, with a + when it has
// uncommitted changes.
func workTreeTag() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	tag := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		tag += "+"
	}
	return tag
}
