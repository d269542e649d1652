// Package analysis is a self-contained, offline subset of
// golang.org/x/tools/go/analysis: the Analyzer/Pass/Diagnostic contract
// and a module-aware loader/runner built only on the standard library and
// the go toolchain (`go list -export`).
//
// The repo's growth environment has no network access and no module cache,
// so the real x/tools dependency cannot be fetched (see internal/lint/tools).
// What is mirrored is what the repo's analyzers use: Analyzer's Name, Doc
// and Run, and Pass's Fset, Files, Pkg, TypesInfo, Report and Reportf, so
// each analyzer in internal/lint/* moves onto upstream
// golang.org/x/tools/go/analysis by changing its import path only. Package
// facts and prerequisite analyzers are not mirrored: no analyzer exchanges
// facts or needs another's result.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis pass: its name (used in
// diagnostics and in //lint:allow annotations), documentation, and its
// Run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with one type-checked package and the
// operation to report diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string // parallel to Files: on-disk path of each file
	Pkg       *types.Package
	TypesInfo *types.Info

	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within Pass.Fset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// typesInfo returns a fully-populated types.Info for type-checking one
// package.
func typesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
