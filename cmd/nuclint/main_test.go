package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nuconsensus/internal/lint/analysis"
)

// allowCases gives, for every analyzer in the suite, a minimal fixture
// that triggers exactly its diagnostic, with an @ALLOW@ slot on the line
// above the offending one. TestAllowSuppressesEachAnalyzer compiles each
// twice: with a plain comment the diagnostic must fire, with the
// analyzer's //lint:allow it must not.
var allowCases = []struct {
	analyzer   string
	importPath string
	files      map[string]string
}{
	{
		analyzer:   "locksafe",
		importPath: "internal/substrate",
		files: map[string]string{"a.go": `package substrate

import "sync"

type box struct{ mu sync.Mutex }

func f(b *box, fail bool) {
	@ALLOW@
	b.mu.Lock()
	if fail {
		return
	}
	b.mu.Unlock()
}
`},
	},
	{
		analyzer:   "maporder",
		importPath: "mapscan",
		files: map[string]string{"a.go": `package mapscan

func f(m map[string]int) []string {
	var out []string
	@ALLOW@
	for k := range m {
		out = append(out, k)
	}
	return out
}
`},
	},
	{
		analyzer:   "nodeterm",
		importPath: "internal/model",
		files: map[string]string{"a.go": `package model

import "time"

func f() int64 {
	@ALLOW@
	return time.Now().UnixNano()
}
`},
	},
}

// TestAllowSuppressesEachAnalyzer is the table-driven suppression check:
// every analyzer's diagnostic fires without its allow comment and is
// silenced by `//lint:allow <analyzer> <why>` on the line above.
func TestAllowSuppressesEachAnalyzer(t *testing.T) {
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, tc := range allowCases {
		covered[tc.analyzer] = true
		a, ok := byName[tc.analyzer]
		if !ok {
			t.Errorf("allowCases names %q, which is not in the suite", tc.analyzer)
			continue
		}
		t.Run(tc.analyzer, func(t *testing.T) {
			for _, allowed := range []bool{false, true} {
				comment := "// plain comment, no suppression"
				if allowed {
					comment = "//lint:allow " + tc.analyzer + " table-driven suppression test"
				}
				dir := t.TempDir()
				for name, src := range tc.files {
					src = strings.ReplaceAll(src, "@ALLOW@", comment)
					if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
						t.Fatal(err)
					}
				}
				pkg, err := analysis.CheckDir(dir, tc.importPath, wd)
				if err != nil {
					t.Fatalf("allowed=%v: loading fixture: %v", allowed, err)
				}
				findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
				if err != nil {
					t.Fatalf("allowed=%v: running %s: %v", allowed, tc.analyzer, err)
				}
				if allowed && len(findings) != 0 {
					t.Errorf("lint:allow did not silence %s: %v", tc.analyzer, findings)
				}
				if !allowed && len(findings) == 0 {
					t.Errorf("fixture did not trigger %s without the allow comment", tc.analyzer)
				}
				for _, f := range findings {
					if f.Analyzer != tc.analyzer {
						t.Errorf("unexpected analyzer in finding: got %s, want %s (%s)", f.Analyzer, tc.analyzer, f.Message)
					}
				}
			}
		})
	}
	for _, a := range analyzers {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no suppression case: add one to allowCases", a.Name)
		}
	}
}

// TestTreeCleanUnderFullSuite pins satellite hygiene: the module itself
// must carry zero findings under all three analyzers, so any rule the
// suite enforces on contributors holds for the tree as committed.
func TestTreeCleanUnderFullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	pkgs, err := analysis.Load(".", "nuconsensus/...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s: %s", f.Posn.Filename, f.Posn.Line, f.Posn.Column, f.Analyzer, f.Message)
	}
}
