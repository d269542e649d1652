// Package ctrlflow builds the control-flow graphs and value-tracking
// tables the dataflow analyzers (bufownership, locksafe) solve over: one
// entry per function declaration and function literal of a package, test
// files excluded, matching the other analyzers' scope. It is the offline
// analogue of golang.org/x/tools/go/analysis/passes/ctrlflow, called as a
// plain function instead of through a prerequisite analyzer.
package ctrlflow

import (
	"go/ast"
	"strconv"
	"strings"

	"nuconsensus/internal/lint/analysis"
	"nuconsensus/internal/lint/flow"
)

// A FuncInfo is one analyzed function: its name, graph and value tables.
type FuncInfo struct {
	// Name is the declared name, with the receiver type prefixed for
	// methods ("(*Inbox).Take"); function literals get the enclosing
	// declaration's name plus a positional suffix.
	Name string
	// Graph is the function's control-flow graph.
	Graph *flow.CFG
	// Vals tracks the function's local variables (aliases, uses).
	Vals *flow.Values
}

// Funcs returns every function of the pass's package in deterministic
// (file, position) order.
func Funcs(pass *analysis.Pass) []*FuncInfo {
	var funcs []*FuncInfo
	addFunc := func(name string, body *ast.BlockStmt) {
		if body == nil {
			return
		}
		funcs = append(funcs, &FuncInfo{
			Name:  name,
			Graph: flow.New(body, nil),
			Vals:  flow.NewValues(pass.TypesInfo, body),
		})
	}
	for i, file := range pass.Files {
		if strings.HasSuffix(pass.Filenames[i], "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := declName(fd)
			addFunc(name, fd.Body)
			// Function literals anywhere inside (including in the bodies
			// of other literals) get their own entries: a closure is a
			// separate function with separate paths.
			lit := 0
			ast.Inspect(fd, func(n ast.Node) bool {
				if fl, isLit := n.(*ast.FuncLit); isLit {
					lit++
					addFunc(name+"·func"+strconv.Itoa(lit), fl.Body)
				}
				return true
			})
		}
		// Literals in var initializers (Spec bodies, hook tables).
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			lit := 0
			ast.Inspect(gd, func(n ast.Node) bool {
				if fl, isLit := n.(*ast.FuncLit); isLit {
					lit++
					addFunc("init·func"+strconv.Itoa(lit), fl.Body)
				}
				return true
			})
		}
	}
	return funcs
}

// declName renders a function declaration's name, receiver-qualified for
// methods.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	return "(" + typeText(recv) + ")." + fd.Name.Name
}

// typeText renders simple receiver type expressions.
func typeText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeText(t.X)
	case *ast.IndexExpr:
		return typeText(t.X)
	case *ast.IndexListExpr:
		return typeText(t.X)
	}
	return "?"
}
