// Command nuclint is the multichecker for the repo's determinism and
// model-faithfulness invariants. It bundles three analyzers:
//
//	locksafe     every Lock is followed by defer Unlock, or by an Unlock
//	             later in its block with no early exit between
//	maporder     no map iteration order escaping into output
//	nodeterm     no wall-clock / ambient randomness / env vars / ad-hoc
//	             goroutines / obs.Wall in determinism-critical packages
//
// Pooled buffers are checked at run time instead: wire.PutBuf poisons
// every buffer it takes back, so a use after put fails the tests.
//
// Usage (package patterns, default ./...):
//
//	go run ./cmd/nuclint ./...
//	go run ./cmd/nuclint -only maporder,nodeterm ./...
//	go run ./cmd/nuclint -json report.json ./...
//
// Findings can be suppressed case by case with a trailing
// `//lint:allow <analyzer> <why>` comment on the offending line or the
// line above it.
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nuconsensus/internal/lint/analysis"
	"nuconsensus/internal/lint/locksafe"
	"nuconsensus/internal/lint/maporder"
	"nuconsensus/internal/lint/nodeterm"
)

// analyzers is the nuclint suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	locksafe.Analyzer,
	maporder.Analyzer,
	nodeterm.Analyzer,
}

func main() {
	fs := flag.NewFlagSet("nuclint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.String("json", "", `write findings as a JSON array to this file ("-" for stdout)`)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: nuclint [-list] [-only a,b] [-json file] [package patterns]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	args := fs.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(lint(args, selected, *jsonOut))
}

// selectAnalyzers resolves the -only list against the suite; an empty
// spec selects everything.
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("nuclint: -only names unknown analyzer %q (see -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("nuclint: -only selected no analyzers")
	}
	return out, nil
}

// jsonFinding is one diagnostic in -json output: flat, stable fields, in
// the same order the text reporter prints.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// lint loads the patterns through the go toolchain and runs the selected
// suite in-process.
func lint(patterns []string, selected []*analysis.Analyzer, jsonOut string) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	findings, err := analysis.Run(pkgs, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	wd, _ := os.Getwd()
	rel := func(name string) string {
		if wd != "" {
			if r, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(r, "..") {
				return r
			}
		}
		return name
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", rel(f.Posn.Filename), f.Posn.Line, f.Posn.Column, f.Analyzer, f.Message)
	}
	if jsonOut != "" {
		report := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			report = append(report, jsonFinding{
				Analyzer: f.Analyzer,
				File:     rel(f.Posn.Filename),
				Line:     f.Posn.Line,
				Column:   f.Posn.Column,
				Message:  f.Message,
			})
		}
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		blob = append(blob, '\n')
		if jsonOut == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(jsonOut, blob, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "nuclint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
