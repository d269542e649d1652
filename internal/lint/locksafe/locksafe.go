// Package locksafe implements the `locksafe` analyzer: every
// sync.Mutex/RWMutex Lock or RLock call statement is released in the
// statement list it sits in. It passes if either
//
//   - the next statement is `defer <recv>.Unlock()` (RUnlock for RLock), or
//   - a later statement of the same list is `<recv>.Unlock()`, and no
//     statement between them contains a return, goto, break, continue or
//     panic call (function literals are not looked into).
//
// The receiver is matched by its printed expression. The rule is
// syntactic on purpose: it sees one statement list at a time, so a lock
// released on two branches, or a pair split across correlated
// conditionals, annotates with //lint:allow locksafe <why>.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nuconsensus/internal/lint/analysis"
)

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "every Lock is followed by defer Unlock, or by an Unlock later in its block with no early exit between",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for i, file := range pass.Files {
		if strings.HasSuffix(pass.Filenames[i], "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkList(pass, n.List)
			case *ast.CaseClause:
				checkList(pass, n.Body)
			case *ast.CommClause:
				checkList(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// checkList reports every lock statement of list that the rule does not
// see released.
func checkList(pass *analysis.Pass, list []ast.Stmt) {
	for i, s := range list {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		recv, op := mutexCall(pass, es.X)
		if op != "Lock" && op != "RLock" {
			continue
		}
		unlock := strings.TrimSuffix(op, "Lock") + "Unlock"
		if !released(pass, list[i+1:], recv, unlock) {
			pass.Reportf(es.Pos(),
				"%s of %s is not released on every path: follow it with defer %s.%s(), or unlock later in the same block with no return, goto, break, continue or panic between",
				op, recv, recv, unlock)
		}
	}
}

// released reports whether rest, the statements after a lock, releases it.
func released(pass *analysis.Pass, rest []ast.Stmt, recv, unlock string) bool {
	if len(rest) > 0 {
		if d, ok := rest[0].(*ast.DeferStmt); ok && isCall(pass, d.Call, recv, unlock) {
			return true
		}
	}
	for _, s := range rest {
		if es, ok := s.(*ast.ExprStmt); ok && isCall(pass, es.X, recv, unlock) {
			return true
		}
		if exits(s) {
			return false
		}
	}
	return false
}

func isCall(pass *analysis.Pass, e ast.Expr, recv, op string) bool {
	r, o := mutexCall(pass, e)
	return r == recv && o == op
}

// exits reports whether s contains a statement that can leave the list
// early: a return, goto, break, continue or panic call.
func exits(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok != token.FALLTHROUGH {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}

// mutexCall returns the printed receiver and method name of a call to a
// sync.Mutex or sync.RWMutex method, or "", "" for any other expression.
func mutexCall(pass *analysis.Pass, e ast.Expr) (recv, op string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	if name := fn.FullName(); !strings.HasPrefix(name, "(*sync.Mutex).") && !strings.HasPrefix(name, "(*sync.RWMutex).") {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}
