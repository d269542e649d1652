// Command bench is the repo benchmark: it builds and drives the real
// cmd/nucd binary over loopback TCP with its own open- and closed-loop
// client, runs the same serving stack in process on the deterministic sim
// substrate (once fault-free, once with a crashed replica), verifies what
// came back, and reports end-to-end metrics plus a per-layer ledger. See
// README.md for the workloads, the metric glossary and how the layers are
// expected to move the end-to-end numbers.
//
// Driver contract (BENCHMARK.json; run from the repo root):
//
//	bash bench/run.sh --workload steady_mix --seed 1 --seconds 24 --trace 0
//
// runs one workload and prints one JSON object as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.
//
// Other modes:
//
//	bash bench/run.sh -out result.json [-runs 3]   all workloads, both passes
//	bash bench/run.sh -compare a.json b.json        verdict per (workload, metric)
//	bash bench/run.sh -table result.json            markdown baseline table
//	bash bench/run.sh -ladder                       steady_mix write-rate ladder, knee
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"nuconsensus/internal/fd"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the driver's JSON line")
		seed     = flag.Int64("seed", 1, "seeds the generated request schedule / the sim scheduler")
		seconds  = flag.Int("seconds", 24, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass and probes")
		out      = flag.String("out", "", "run every workload (both passes) and write the results to this file")
		runs     = flag.Int("runs", 1, "with -out: runs per workload (seeds seed, seed+1, ...), so the file carries spreads")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exits 1 on any 'worse' row")
		table    = flag.String("table", "", "print the markdown baseline table for this -out file")
		ladder   = flag.Bool("ladder", false, "steady_mix at 50..300 writes/s, 10 s each: latency per rate and the knee")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *table != "":
		err = printTable(os.Stdout, *table)
	case *ladder:
		err = runLadder(*seed)
	case *out != "":
		err = runAll(*out, *seed, *seconds, *runs)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// fatal reports a harness error: the benchmark itself could not run.
// Failed operations never come here; they go to fail_frac.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// inRepoRoot checks that the working directory is the nuconsensus module
// the benchmark measures (run.sh starts the binary there): nucd is built
// from ./cmd/nucd.
func inRepoRoot() error {
	b, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(b), "module nuconsensus\n") {
		return fmt.Errorf("run from the root of the nuconsensus checkout (bash bench/run.sh ...)")
	}
	return nil
}

// host describes the machine a result was measured on.
type host struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

func printHeader(name string, seed int64, seconds, trace int) {
	h := thisHost()
	fmt.Printf("# bench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("# host: nproc=%d cpu=%q %s; load generator: 1 process, %d connections\n", h.NProc, h.CPU, h.Go, numConns)
	fmt.Println("# no link delay is injected (the tcp substrate has no such knob): latency is processor time + loopback + RunCluster's idle backoff")
}

// outcome is one pass of one workload.
type outcome struct {
	metrics metricSet
	verdict verdict
}

// passEndToEnd runs a workload's untraced end-to-end pass over dur.
func passEndToEnd(name string, seed int64, dur time.Duration) (*outcome, error) {
	if sp, ok := simSpecs[name]; ok {
		m, v, err := simEndToEnd(sp, seed, dur)
		return &outcome{m, v}, err
	}
	sp, ok := servedSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// Three fresh clusters, a third of the run each, pooled.
	o := &outcome{}
	var passes []*servedPass
	for i := 0; i < clusters; i++ {
		pass, err := runServed(sp, fd.DeriveSeed(fmt.Sprint("cluster", i), seed), dur/clusters, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
		o.verdict.add(pass.verdict)
		fmt.Printf("# cluster %d:", i)
		one := servedEndToEnd(pass)
		for _, d := range endToEnd {
			fmt.Printf(" %s=%.6g", d.Name, one[d.Name].Value)
		}
		fmt.Println()
	}
	o.metrics = servedEndToEnd(passes...)
	return o, nil
}

// passLayers runs a workload's per-layer passes: for a served workload an
// untraced run (client numbers, nucd's exit dump) and a traced one (the six
// stages), each over 40% of the budget; for a sim
// workload a bare and a metered execution; then the probes.
func passLayers(name string, seed int64, dur time.Duration) (*outcome, error) {
	o := &outcome{metrics: metricSet{}}
	if sp, ok := simSpecs[name]; ok {
		v, err := simLayers(sp, seed, o.metrics)
		if err != nil {
			return nil, err
		}
		o.verdict = v
		return o, runProbes(seed, o.metrics)
	}
	sp, ok := servedSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	part := dur * 2 / 5
	bare, err := runServed(sp, seed, part, false)
	if err != nil {
		return nil, err
	}
	traced, err := runServed(sp, seed, part, true)
	if err != nil {
		return nil, err
	}
	servedClientLayers(bare, o.metrics)
	servedDumpLayers(bare, o.metrics)
	o.verdict = bare.verdict
	o.verdict.add(traced.verdict)
	if traced.report != nil {
		if err := tracedLayers(traced, o.metrics); err != nil {
			o.verdict.fail(1, "traced pass: %v", err)
		}
	}
	// Tracing overhead on the workload's headline number: write p50 on the
	// open loop, throughput on the closed ones.
	if sp.open() {
		a, b := collectLatencies(bare).all[kindWrite], collectLatencies(traced).all[kindWrite]
		o.metrics.set("obs.trace_overhead_frac", percentile(b, 0.50)/percentile(a, 0.50)-1, len(b))
	} else {
		a, b := servedThroughput(bare, collectLatencies(bare)), servedThroughput(traced, collectLatencies(traced))
		o.metrics.set("obs.trace_overhead_frac", 1-b.Value/a.Value, b.N)
	}
	o.metrics.set("fail_frac", o.verdict.failFrac(), o.verdict.attempted)
	return o, runProbes(seed, o.metrics)
}

// printMetrics lists every metric of defs by name, with unit and sample
// count (per-layer ones with their layer and source); a metric the workload
// does not exercise prints as n/a.
func printMetrics(defs []metricDef, m metricSet) {
	for _, d := range defs {
		layer := ""
		if d.Layer != "" {
			layer = fmt.Sprintf("  [%s %s]", d.Layer, d.Source)
		}
		if v, ok := m[d.Name]; ok {
			fmt.Printf("%-32s %14.6g %-6s n=%d%s\n", d.Name, v.Value, d.Unit, v.N, layer)
		} else {
			fmt.Printf("%-32s %14s %-6s not exercised by this workload%s\n", d.Name, "n/a", d.Unit, layer)
		}
	}
}

func printVerdict(v verdict, m metricSet) {
	fmt.Printf("# verified: attempted=%d failed=%d\n", v.attempted, v.failed)
	for _, n := range v.notes {
		fmt.Println("#   FAILED:", n)
	}
	if late, ok := m["loadgen.late_p99_us"]; ok && late.Value > 2000 {
		fmt.Printf("# FLAG: the load generator ran late (p99 %.0f us > 2000 us); open-loop latencies are suspect\n", late.Value)
	}
}

// runOne is the driver contract: one workload, one pass, one JSON line.
func runOne(name string, seed int64, seconds, trace int) error {
	if err := inRepoRoot(); err != nil {
		return err
	}
	printHeader(name, seed, seconds, trace)
	dur := time.Duration(seconds) * time.Second
	defs := endToEnd
	var o *outcome
	var err error
	if trace == 0 {
		o, err = passEndToEnd(name, seed, dur)
	} else {
		defs = perLayer
		o, err = passLayers(name, seed, dur)
	}
	if err != nil {
		return err
	}
	printMetrics(defs, o.metrics)
	printVerdict(o.verdict, o.metrics)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{o.verdict.failed == 0, max(o.verdict.attempted, 1), o.verdict.failed, map[string]jm{}}
	for _, d := range defs {
		// A per-layer metric the workload does not exercise reads 0.
		line.Metrics[d.Name] = jm{o.metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
