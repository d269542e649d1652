// Command explore runs the bounded model checker of internal/explore
// against the repo's two canonical targets:
//
//	explore -target anuc -n 3 -f 1 -bound 7        # exhaustively verify A_nuc safety
//	explore -target naive-mr -bound 31 -o cex.json # find + shrink the E6 contamination
//
// The anuc target explores every schedule and every finite-menu failure
// detector choice up to the depth bound and reports the visited state
// count, the reduction factor over naive schedule enumeration, and any
// safety violation (there must be none). The naive-mr target explores the
// naive MR+Σν adaptation under E6's legal Σν history until it finds the
// contamination violation, shrinks the counterexample to a minimal
// schedule, and (with -o) writes it as a RecordedRun that
// nuconsensus.LoadRecordedRun reads back and nuconsensus.Replay re-executes
// (explore_cex_test.go pins that round trip).
//
// Everything on stdout is a deterministic function of the flags; progress
// and timing go to stderr. -metrics writes the exploration registry as
// JSONL ('-' for stderr); -debug-addr serves obs.ServeDebug's pprof,
// /metrics (Prometheus text) and /healthz while exploring.
// The process exits 1 when the outcome contradicts the target's
// expectation (a violation for anuc, no violation for naive-mr), 2 on
// usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nuconsensus"
	"nuconsensus/internal/explore"
	"nuconsensus/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the machine-readable result of one exploration (-json).
type report struct {
	Target           string                   `json:"target"`
	Label            string                   `json:"label"`
	Bound            int                      `json:"bound"`
	States           int64                    `json:"states"`
	Edges            int64                    `json:"edges"`
	Slept            int64                    `json:"slept"`
	Stutters         int64                    `json:"stutters"`
	SchedulePrefixes float64                  `json:"schedule_prefixes"`
	Reduction        float64                  `json:"reduction"`
	Violations       int64                    `json:"violations"`
	Counterexample   []string                 `json:"counterexample,omitempty"`
	Shrunk           []string                 `json:"shrunk,omitempty"`
	Err              string                   `json:"err,omitempty"`
	Run              *nuconsensus.RecordedRun `json:"run,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "anuc", "exploration target: anuc (verify A_nuc safety) or naive-mr (hunt the E6 contamination)")
		n        = fs.Int("n", 3, "number of processes (anuc target)")
		f        = fs.Int("f", 1, "max crash failures to enumerate patterns for (anuc target)")
		bound    = fs.Int("bound", 0, "exploration depth bound (0 = the target's default)")
		out      = fs.String("o", "", "write the shrunk counterexample as a replayable RecordedRun JSON file")
		jsonOut  = fs.String("json", "", "write a machine-readable JSON report to this file")
		progress = fs.Bool("progress", false, "print per-level progress to stderr")
		metrics  = fs.String("metrics", "", "write the exploration metrics registry as JSONL to this file ('-' for stderr)")
		debug    = fs.String("debug-addr", "", "serve /debug/pprof/, /metrics (Prometheus text) and /healthz on this address while exploring")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var reg *obs.Registry
	if *metrics != "" || *debug != "" {
		reg = obs.NewRegistry()
	}
	if *debug != "" {
		ds, err := obs.ServeDebug(*debug, reg, nil)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer ds.Close()
		fmt.Fprintf(stderr, "(debug server on http://%s/debug/pprof/)\n", ds.Addr)
	}

	var scenarios []explore.Scenario
	switch *target {
	case "anuc":
		scenarios = explore.VerifyANuc(*n, *f)
	case "naive-mr":
		scenarios = []explore.Scenario{explore.Contamination()}
	default:
		fmt.Fprintf(stderr, "explore: unknown -target %q (want anuc or naive-mr)\n", *target)
		return 2
	}

	exit := 0
	var reports []report
	for _, sc := range scenarios {
		o := sc.Opts
		o.Bound = sc.Bound
		if *bound > 0 {
			o.Bound = *bound
		}
		if *progress {
			o.Progress = func(depth, frontier int, states int64) {
				fmt.Fprintf(stderr, "%s: level %d/%d frontier=%d states=%d\n", sc.Label, depth, o.Bound, frontier, states)
			}
		}
		o.Metrics = reg
		start := time.Now()
		res, err := explore.Explore(o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		elapsed := time.Since(start)
		rate := ""
		if secs := elapsed.Seconds(); secs > 0 {
			rate = fmt.Sprintf(", %.0f states/s", float64(res.States)/secs)
		}
		fmt.Fprintf(stderr, "%s: explored in %s%s\n", sc.Label, elapsed.Round(time.Millisecond), rate)

		rep := report{
			Target:           *target,
			Label:            sc.Label,
			Bound:            o.Bound,
			States:           res.States,
			Edges:            res.Edges,
			Slept:            res.Slept,
			Stutters:         res.Stutters,
			SchedulePrefixes: res.SchedulePrefixes,
			Reduction:        res.Reduction,
			Violations:       res.Violations,
		}
		fmt.Fprintf(stdout, "%-22s bound=%d states=%d edges=%d slept=%d stutters=%d prefixes=%.4g reduction=%.1fx violations=%d\n",
			sc.Label, o.Bound, res.States, res.Edges, res.Slept, res.Stutters, res.SchedulePrefixes, res.Reduction, res.Violations)

		switch *target {
		case "anuc":
			if res.Violations > 0 {
				exit = 1
				fmt.Fprintf(stdout, "%-22s VIOLATION %s: %v\n", sc.Label, res.Counterexample.Err, res.Counterexample.Path)
			} else {
				fmt.Fprintf(stdout, "%-22s verified: no safety violation in any schedule\n", sc.Label)
			}
		case "naive-mr":
			if res.Counterexample == nil {
				exit = 1
				fmt.Fprintf(stdout, "%-22s no contamination found up to bound %d\n", sc.Label, o.Bound)
				break
			}
			rep.Err = res.Counterexample.Err
			rep.Counterexample = choiceStrings(res.Counterexample.Path)
			shrunk := explore.Shrink(o, res.Counterexample.Path)
			rep.Shrunk = choiceStrings(shrunk)
			rep.Run = nuconsensus.RecordedFromSchedule(o.Automaton.N(), shrunk)
			fmt.Fprintf(stdout, "%-22s violation: %s\n", sc.Label, res.Counterexample.Err)
			fmt.Fprintf(stdout, "%-22s counterexample: %d steps, shrunk to %d: %v\n",
				sc.Label, len(res.Counterexample.Path), len(shrunk), shrunk)
			if *out != "" {
				if err := nuconsensus.SaveRecordedRun(*out, rep.Run); err != nil {
					fmt.Fprintln(stderr, err)
					return 2
				}
				fmt.Fprintf(stderr, "%s: wrote replayable counterexample to %s\n", sc.Label, *out)
			}
		}
		reports = append(reports, rep)
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

	if *jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", " ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	return exit
}

// choiceStrings renders a schedule for the JSON report.
func choiceStrings(path []explore.Choice) []string {
	out := make([]string, len(path))
	for i, ch := range path {
		out[i] = ch.String()
	}
	return out
}
