//go:build tools

// Package tools pins the intended external tooling dependency of the
// lint suite. The analyzers under internal/lint are written against the
// golang.org/x/tools/go/analysis API (Analyzer/Pass/Diagnostic), but this
// repo builds in offline environments where the module cannot be fetched,
// so an API-compatible core lives in internal/lint/analysis and this
// import is gated behind the "tools" build tag.
//
// To switch to the upstream module once network access is available:
//
//  1. go get golang.org/x/tools@latest (pins the version in go.mod; this
//     file then anchors it against `go mod tidy`).
//  2. In the analyzer packages (locksafe, maporder, nodeterm), change the
//     import of nuconsensus/internal/lint/analysis to
//     golang.org/x/tools/go/analysis — the Analyzer literals and Report
//     calls are field-for-field compatible. Pass.Filenames, which the
//     analyzers use to skip test files, becomes
//     pass.Fset.File(f.Pos()).Name().
//  3. Replace cmd/nuclint's hand-rolled driver with
//     multichecker.Main(locksafe.Analyzer, maporder.Analyzer,
//     nodeterm.Analyzer).
//  4. Port the test suites to go/analysis/analysistest (same testdata/src
//     layout and `// want` syntax) and delete internal/lint/analysis,
//     internal/lint/analysistest and this file.
package tools

import (
	_ "golang.org/x/tools/go/analysis/multichecker"
)
