// Command experiments regenerates the reproduction tables of EXPERIMENTS.md:
// one table per theorem/algorithm/scenario of the paper (E1–E18) and per
// quantitative figure (Q1–Q6), run on the parallel deterministic engine of
// internal/experiments.
//
// Usage:
//
//	experiments [-e E1,Q4] [-substrate sim|async|tcp] [-full] [-seeds N] [-parallel N] [-json out.json] [-timeout 5m]
//	            [-events out.jsonl] [-trace out.trace.json] [-metrics out.metrics.jsonl] [-debug-addr :6060] [-memprofile heap.pb.gz]
//
// With no -e flag, every experiment runs in canonical order. -substrate
// selects the execution backend of internal/substrate (default sim, the
// deterministic step simulator); on a non-sim substrate only the
// substrate-portable experiments run (and with no -e flag, only those are
// selected). -parallel sets the worker-pool size (default: all CPUs); on
// the sim substrate the rendered tables on stdout are byte-identical for
// every worker count. -json additionally writes a machine-readable report
// (tables, per-row and per-unit timing, pass verdicts, memory summary) for
// CI to archive. -timeout aborts the whole run via context cancellation.
//
// Observability (internal/obs): -events exports every unit's causal event
// stream as JSONL in canonical order (on the sim substrate the file is
// byte-identical at any -parallel value, as is the -metrics dump —
// TestEventsByteIdenticalAcrossParallel asserts both); -trace exports
// the same stream in Chrome trace_event format, which opens directly in
// Perfetto or chrome://tracing with Send→Deliver flow arrows; -metrics
// writes the run's counter/histogram registry as JSONL, one instrument per
// line in name order; -debug-addr serves obs.ServeDebug's pprof, /metrics
// (Prometheus text) and /healthz while the run executes; -memprofile writes a heap profile at exit. The process exits 1 if any
// selected experiment fails its claim, 2 on usage or runtime errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nuconsensus/internal/experiments"
	"nuconsensus/internal/obs"
	"nuconsensus/internal/substrate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: parses flags, drives the engine,
// renders tables, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sel      = fs.String("e", "", "comma-separated experiment IDs (default: all)")
		full     = fs.Bool("full", false, "run at full scale (slower, more seeds)")
		seeds    = fs.Int("seeds", 0, "override the number of seeds per configuration")
		out      = fs.String("o", "", "also write the rendered tables to this file")
		parallel = fs.Int("parallel", runtime.NumCPU(), "worker-pool size (1 = sequential; output is identical either way)")
		jsonOut  = fs.String("json", "", "write a machine-readable JSON report to this file")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		subName  = fs.String("substrate", "sim", "execution backend: "+strings.Join(substrate.Names(), "|"))
		events   = fs.String("events", "", "export the causal event stream as JSONL to this file")
		traceOut = fs.String("trace", "", "export the causal event stream as a Chrome trace_event file (Perfetto)")
		metrics  = fs.String("metrics", "", "write the metrics registry as JSONL to this file ('-' for stderr)")
		debug    = fs.String("debug-addr", "", "serve /debug/pprof/, /metrics (Prometheus text) and /healthz on this address while running")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := substrate.Get(*subName); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var fileOut *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		fileOut = f
	}

	sc := experiments.Quick
	if *full {
		sc = experiments.Full
	}
	if *seeds > 0 {
		sc.Seeds = *seeds
	}
	sc.Substrate = *subName

	ids := experiments.IDs()
	if sc.SubstrateName() != "sim" {
		// Without an explicit selection, a concurrent substrate runs the
		// portable slice; an explicit -e naming a non-portable experiment
		// still fails fast in RunIDs.
		ids = experiments.PortableIDs()
	}
	if *sel != "" {
		ids = nil
		for _, id := range strings.Split(*sel, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments.Registry[id]; !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; known: %s\n", id, strings.Join(experiments.IDs(), ", "))
				return 2
			}
			ids = append(ids, id)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Observability wiring: a shared registry whenever any consumer wants
	// it, file-backed event sinks fed in canonical order by the engine.
	engOpts := experiments.Options{Workers: *parallel}
	var reg *obs.Registry
	if *metrics != "" || *events != "" || *traceOut != "" || *debug != "" {
		reg = obs.NewRegistry()
		engOpts.Metrics = reg
	}
	var sinks []obs.Sink
	for _, spec := range []struct {
		path string
		mk   func(f *os.File) obs.Sink
	}{
		{*events, func(f *os.File) obs.Sink { return obs.NewJSONL(f) }},
		{*traceOut, func(f *os.File) obs.Sink { return obs.NewChromeTrace(f) }},
	} {
		if spec.path == "" {
			continue
		}
		f, err := os.Create(spec.path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sinks = append(sinks, spec.mk(f))
	}
	engOpts.EventSinks = sinks
	if *debug != "" {
		ds, err := obs.ServeDebug(*debug, reg, nil)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer ds.Close()
		fmt.Fprintf(stderr, "(debug server on http://%s/debug/pprof/)\n", ds.Addr)
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	start := time.Now()
	tables, err := experiments.RunIDs(ctx, ids, sc, engOpts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	wall := time.Since(start)

	for _, s := range sinks {
		if err := s.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *metrics != "" {
		var err error
		if *metrics == "-" {
			err = reg.WriteJSONL(stderr)
		} else {
			err = reg.WriteJSONLFile(*metrics)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	allPass := true
	for _, table := range tables {
		fmt.Fprintln(stdout, table.Render())
		// Timing goes to stderr so stdout stays byte-identical across runs
		// and worker counts.
		fmt.Fprintf(stderr, "(%s took %v of worker time)\n", table.ID, table.Elapsed.Round(time.Millisecond))
		if fileOut != nil {
			fmt.Fprintln(fileOut, table.Render())
		}
		if !table.Pass {
			allPass = false
		}
	}
	fmt.Fprintf(stderr, "(%d experiments, %d workers, %v wall)\n", len(tables), *parallel, wall.Round(time.Millisecond))

	if *jsonOut != "" {
		rep := experiments.NewReport(tables, sc, *parallel, wall)
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		rep.MemAllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
		rep.NumGC = memAfter.NumGC - memBefore.NumGC
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		runtime.GC() // up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if !allPass {
		fmt.Fprintln(stderr, "FAIL: at least one experiment did not support its claim")
		return 1
	}
	return 0
}
