package bufownership

import (
	"go/ast"
	"go/types"
	"strings"

	"nuconsensus/internal/lint/analysis"
)

// checkPools enforces the pooled shape: every sync.Pool literal's New
// hook, and every Pool.Put argument, must be *[]T with pointer-free T:
//
//	var bufPool = sync.Pool{New: func() interface{} { return new([]byte) }}        // ok
//	var qsScratch = sync.Pool{New: func() any { return new([]model.ProcessSet) }}  // ok
//	var msgPool = sync.Pool{New: func() interface{} { return new(model.Message) }} // flagged
func checkPools(pass *analysis.Pass) {
	for i, file := range pass.Files {
		if strings.HasSuffix(pass.Filenames[i], "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if t := pass.TypesInfo.TypeOf(n); t != nil && isSyncPool(t) {
					checkPoolLit(pass, n)
				}
			case *ast.CallExpr:
				checkPut(pass, n)
			}
			return true
		})
	}
}

// isSyncPool reports whether t (possibly behind a pointer) is sync.Pool.
func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isPoolPut reports whether fn is the Put method of sync.Pool.
func isPoolPut(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return fn.Name() == "Put" && recv != nil && isSyncPool(recv.Type())
}

// checkPoolLit enforces the buffer shape on a sync.Pool literal's New hook.
func checkPoolLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	var newFn ast.Expr
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "New" {
			newFn = kv.Value
		}
	}
	if newFn == nil {
		pass.Reportf(lit.Pos(),
			"sync.Pool without a New hook: declare New as a func literal returning *[]T (pointer-free T) so the pooled shape is checkable")
		return
	}
	fnLit, ok := newFn.(*ast.FuncLit)
	if !ok {
		pass.Reportf(newFn.Pos(),
			"sync.Pool New hook is not a func literal: inline it as func() interface{} { return new([]T) } so the pooled buffer shape is checkable")
		return
	}
	// Inspect the literal's own return statements (not nested literals').
	ast.Inspect(fnLit.Body, func(n ast.Node) bool {
		if _, isNested := n.(*ast.FuncLit); isNested {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if t := pass.TypesInfo.TypeOf(res); t != nil && !isBufferPointer(t) {
				pass.Reportf(res.Pos(),
					"sync.Pool New returns %s: pooling is confined to pointer-free buffers, return *[]T with pointer-free T (never messages, payloads or nodes)",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		}
		return true
	})
}

// checkPut enforces the buffer shape on sync.Pool Put arguments.
func checkPut(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !ok || !isPoolPut(fn) {
		return
	}
	if t := pass.TypesInfo.TypeOf(call.Args[0]); t != nil && !isBufferPointer(t) {
		pass.Reportf(call.Args[0].Pos(),
			"sync.Pool.Put of %s: pooling is confined to pointer-free buffers, pass *[]T with pointer-free T",
			types.TypeString(t, types.RelativeTo(pass.Pkg)))
	}
}

// isBufferPointer reports whether t is `*[]E` with a recursively
// pointer-free element type E — the only shape a pool may hold.
func isBufferPointer(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	s, ok := p.Elem().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return pointerFree(s.Elem(), make(map[types.Type]bool))
}

// pointerFree reports whether values of t contain no pointers: basic
// non-string scalars, and arrays/structs thereof. Strings are excluded —
// their headers point at shared backing arrays, which is exactly the
// aliasing the rule is there to exclude.
func pointerFree(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true // recursive types necessarily contain pointers, but the cycle is cut elsewhere
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString == 0 && u.Kind() != types.UnsafePointer
	case *types.Array:
		return pointerFree(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !pointerFree(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	}
	return false
}
