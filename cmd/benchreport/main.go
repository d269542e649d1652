// Command benchreport normalises `go test -bench` output into the
// canonical BENCH_*.json format that records the repo's performance
// trajectory (README "Benchmarks and the perf contract").
//
// Usage:
//
//	go test -run '^$' -bench 'SimStep|Wire|Inbox|ExploreFrontier' -benchmem -count=3 . > bench.txt
//	go run ./cmd/benchreport -in bench.txt -out BENCH_15.json       # normalise
//	go run ./cmd/benchreport -in bench.txt -check BENCH_15.json     # regression gate
//
// Normalisation takes the median of each metric across the -count runs
// (ns/op, B/op, allocs/op and any custom unit the benchmark reports) and
// strips the GOMAXPROCS suffix from benchmark names, so the JSON is a pure
// function of the measured numbers. Host metadata (goos/goarch/cpu) is
// recorded for context but never compared.
//
// The -check gate compares only allocs/op, and only on the benchmarks the
// hot-path contract covers (-gate regexp; default: the sim step loop, the
// wire decode/encode paths, the history-delta inner loops, the serving
// layer's batch codec and session dedup, the long replicated-log run and
// the explorer frontier — the last two are where a per-step or per-fork
// clone creeping back would show): allocation counts are deterministic
// across hosts, unlike ns/op, so the gate neither flakes on slow CI
// runners nor needs per-host baselines. A baseline of 0 allocs/op fails on
// ANY allocation; nonzero baselines fail on a >10% regression (-max-regress).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Report is the canonical BENCH_*.json document.
type Report struct {
	Schema     string      `json:"schema"` // "nuconsensus-bench/1"
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's median metrics across the -count runs.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// gomaxprocsSuffix is the trailing "-N" go test appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// benchLine matches one result line: name, iteration count, then
// value/unit pairs ("37.70 ns/op", "0 allocs/op", "1234 states/op").
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.+)$`)

// parse reads go test -bench output, collecting every run of every
// benchmark (with -count=N each name appears N times).
func parse(r io.Reader) (*Report, map[string][]map[string]float64, error) {
	rep := &Report{Schema: "nuconsensus-bench/1"}
	runs := make(map[string][]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, nil, fmt.Errorf("benchreport: odd metric fields in %q", line)
		}
		metrics := make(map[string]float64, len(fields)/2)
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("benchreport: bad value %q in %q: %v", fields[i], line, err)
			}
			metrics[fields[i+1]] = v
		}
		runs[name] = append(runs[name], metrics)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("benchreport: no benchmark lines found in input")
	}
	return rep, runs, nil
}

// median of a non-empty sample: the middle value, or the mean of the two
// middle values for even counts.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// build folds the collected runs into the canonical report: benchmarks in
// sorted name order, each metric the median across runs.
func build(rep *Report, runs map[string][]map[string]float64) *Report {
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := runs[name]
		var unitNames []string
		for _, m := range rs {
			for unit := range m {
				unitNames = append(unitNames, unit)
			}
		}
		sort.Strings(unitNames)
		med := make(map[string]float64, len(unitNames))
		for _, unit := range unitNames {
			if _, done := med[unit]; done {
				continue
			}
			var vs []float64
			for _, m := range rs {
				if v, ok := m[unit]; ok {
					vs = append(vs, v)
				}
			}
			med[unit] = median(vs)
		}
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Runs: len(rs), Metrics: med})
	}
	return rep
}

// check gates allocs/op against the baseline for every gated benchmark.
// It returns one message per violation (empty means the gate passes).
func check(cur, base *Report, gate *regexp.Regexp, maxRegress float64) []string {
	curByName := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var bad []string
	for _, b := range base.Benchmarks {
		if !gate.MatchString(b.Name) {
			continue
		}
		baseAllocs, ok := b.Metrics["allocs/op"]
		if !ok {
			continue // baseline recorded without -benchmem; nothing to gate
		}
		nb, ok := curByName[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: gated benchmark missing from current run", b.Name))
			continue
		}
		curAllocs, ok := nb.Metrics["allocs/op"]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: current run has no allocs/op (run with -benchmem)", b.Name))
			continue
		}
		switch {
		case baseAllocs == 0 && curAllocs > 0:
			bad = append(bad, fmt.Sprintf("%s: allocs/op regressed from 0 to %g (zero-allocation contract)", b.Name, curAllocs))
		case curAllocs > baseAllocs*(1+maxRegress):
			bad = append(bad, fmt.Sprintf("%s: allocs/op regressed from %g to %g (>%g%%)",
				b.Name, baseAllocs, curAllocs, maxRegress*100))
		}
	}
	return bad
}

func main() {
	var (
		in         = flag.String("in", "-", "go test -bench output to read ('-' for stdin)")
		out        = flag.String("out", "", "write the canonical JSON report to this file ('-' for stdout)")
		checkPath  = flag.String("check", "", "compare against this committed baseline report and fail on allocs/op regressions")
		gateExpr   = flag.String("gate", `^BenchmarkSimStep/|^BenchmarkWireDecode/|^BenchmarkWireEncode/|^BenchmarkHistoryDelta/|^BenchmarkServeBatch/|^BenchmarkSessionDedup/|^BenchmarkLogLongRun/|^BenchmarkExploreFrontier`, "regexp selecting the benchmarks the allocs/op gate covers")
		maxRegress = flag.Float64("max-regress", 0.10, "allowed fractional allocs/op regression for nonzero baselines")
	)
	flag.Parse()
	if *out == "" && *checkPath == "" {
		fmt.Fprintln(os.Stderr, "benchreport: nothing to do; pass -out and/or -check")
		os.Exit(2)
	}

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	rep, runs, err := parse(src)
	if err != nil {
		fatal(err)
	}
	rep = build(rep, runs)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	}

	if *checkPath != "" {
		gate, err := regexp.Compile(*gateExpr)
		if err != nil {
			fatal(err)
		}
		baseData, err := os.ReadFile(*checkPath)
		if err != nil {
			fatal(err)
		}
		var base Report
		if err := json.Unmarshal(baseData, &base); err != nil {
			fatal(fmt.Errorf("benchreport: bad baseline %s: %v", *checkPath, err))
		}
		if bad := check(rep, &base, gate, *maxRegress); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "benchreport: FAIL:", msg)
			}
			os.Exit(1)
		}
		fmt.Printf("benchreport: allocs/op gate passed against %s (%d benchmarks gated)\n",
			*checkPath, countGated(&base, gate))
	}
}

// countGated reports how many baseline benchmarks the gate covers.
func countGated(base *Report, gate *regexp.Regexp) int {
	n := 0
	for _, b := range base.Benchmarks {
		if gate.MatchString(b.Name) {
			if _, ok := b.Metrics["allocs/op"]; ok {
				n++
			}
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
