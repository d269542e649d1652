// Package bufownership implements the `bufownership` analyzer: pooled
// buffers obey a strict ownership protocol — wire.GetBuf (or a direct
// sync.Pool Get) leases a buffer to exactly one owner, and PutBuf (or a
// direct sync.Pool Put) ends the lease. After the put, on
// any path, the buffer must not be read, written through, re-put or
// escape: the pool may already have handed the same backing array to
// another goroutine, and on the deterministic substrates the resulting
// aliasing shows up as runs whose bytes depend on GC and scheduling
// rather than on the seed. The wire package's -race aliasing test probes
// this class dynamically on one transport; this analyzer proves its
// absence per-path, offline, for every package of the module.
//
// The analysis is an intraprocedural forward dataflow over the ctrlflow
// graphs: a put kills the argument's whole alias class (b, b[:n], any
// variable assigned from them), a reassignment re-leases just that
// variable, and every classified use of a dead variable is reported —
// reads, writes (v[i] = x, append targets), re-puts (double-put), and
// escapes through call arguments, returns, stores or closure captures.
//
// A lease ends at a direct (*sync.Pool).Put call or at a call of any
// function named PutBuf (the wire package's canonical putter); together
// they are every putter in the tree.
//
// The same analyzer pins what a pool may hold (DESIGN.md §8): every
// sync.Pool composite literal's New hook must be a function literal
// returning *[]T with recursively pointer-free T, and every Pool.Put
// argument must have that shape, so a well-typed pool cannot be laundered
// through Put either (see pool.go). Pooling anything that carries pointers
// — messages, payloads, nodes — is how a recycled object the old owner
// still references resurfaces under a new writer.
//
// A site that intentionally breaks either rule can annotate with
// //lint:allow bufownership <why>.
package bufownership

import (
	"go/ast"
	"go/token"
	"go/types"

	"nuconsensus/internal/lint/analysis"
	"nuconsensus/internal/lint/ctrlflow"
	"nuconsensus/internal/lint/flow"
)

// Analyzer is the bufownership pass.
var Analyzer = &analysis.Analyzer{
	Name: "bufownership",
	Doc:  "pooled buffers are pointer-free *[]T and are not used, re-put or escaped after PutBuf on any path",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	checkPools(pass)
	for _, fi := range ctrlflow.Funcs(pass) {
		checkFunc(pass, fi)
	}
	return nil, nil
}

// putArg returns the buffer argument of a lease-ending call: a direct
// (*sync.Pool).Put or a call of a function named PutBuf.
func putArg(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) != 1 {
		return nil, false
	}
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	if fn == nil || (fn.Name() != "PutBuf" && !isPoolPut(fn)) {
		return nil, false
	}
	return call.Args[0], true
}

// deadMap is the dataflow fact: the variables whose backing buffer has
// been returned to the pool, each mapped to the put position (the
// earliest across joined paths, for stable diagnostics).
type deadMap map[types.Object]token.Pos

// ownership is the flow.Facts instance for one function.
type ownership struct {
	pass *analysis.Pass
	vals *flow.Values
}

func (ownership) Bottom() deadMap { return deadMap{} }
func (ownership) Entry() deadMap  { return deadMap{} }

func (ownership) Join(dst, src deadMap) deadMap {
	for o, pos := range src {
		if cur, ok := dst[o]; !ok || pos < cur {
			dst[o] = pos
		}
	}
	return dst
}

func (ownership) Equal(a, b deadMap) bool {
	if len(a) != len(b) {
		return false
	}
	for o, pos := range a {
		if bp, ok := b[o]; !ok || bp != pos {
			return false
		}
	}
	return true
}

func (x ownership) Transfer(b *flow.Block, in deadMap) deadMap {
	out := deadMap{}
	for o, p := range in {
		out[o] = p
	}
	for _, n := range b.Nodes {
		x.transferNode(n, out)
	}
	return out
}

// transferNode applies one block node: puts kill the argument's alias
// class, assignments and range definitions re-lease their targets.
// Deferred and go'd calls are skipped — a deferred put runs at exit,
// after every path the graph models.
func (x ownership) transferNode(n ast.Node, dead deadMap) {
	flow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if arg, ok := putArg(x.pass, m); ok {
				if obj := x.vals.DerivedFrom(arg); obj != nil {
					for _, o := range x.vals.ClassMembers(obj) {
						if _, already := dead[o]; !already {
							dead[o] = m.Pos()
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := x.objOf(id); obj != nil {
						delete(dead, obj)
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range m.Names {
				if obj := x.pass.TypesInfo.Defs[name]; obj != nil {
					delete(dead, obj)
				}
			}
		case *ast.RangeStmt:
			for _, kv := range []ast.Expr{m.Key, m.Value} {
				if id, ok := kv.(*ast.Ident); ok && id != nil {
					if obj := x.objOf(id); obj != nil {
						delete(dead, obj)
					}
				}
			}
		}
		return true
	})
}

func (x ownership) objOf(id *ast.Ident) types.Object {
	if obj := x.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	if obj, ok := x.pass.TypesInfo.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// checkFunc solves the ownership dataflow for one function and reports
// every use of a dead buffer.
func checkFunc(pass *analysis.Pass, fi *ctrlflow.FuncInfo) {
	x := ownership{pass: pass, vals: fi.Vals}
	sol := flow.Solve[deadMap](fi.Graph, flow.Forward, x)
	seen := make(map[token.Pos]bool)
	for _, b := range fi.Graph.Blocks {
		if !b.Live {
			continue
		}
		dead := deadMap{}
		x.Join(dead, sol.In[b.Index])
		for _, n := range b.Nodes {
			reportNode(pass, x, n, dead, seen)
			x.transferNode(n, dead)
		}
	}
}

// reportNode reports, against the pre-state, double-puts and every other
// classified use of a dead buffer within one block node.
func reportNode(pass *analysis.Pass, x ownership, n ast.Node, dead deadMap, seen map[token.Pos]bool) {
	putArgPos := make(map[token.Pos]bool)
	flow.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, isPut := putArg(pass, call)
		if !isPut {
			return true
		}
		putArgPos[arg.Pos()] = true
		if obj := x.vals.DerivedFrom(arg); obj != nil {
			if putAt, isDead := dead[obj]; isDead && !seen[arg.Pos()] {
				seen[arg.Pos()] = true
				pass.Reportf(arg.Pos(),
					"pooled buffer %s recycled twice: already returned to the pool at line %d — a double-put hands the same backing array to two owners",
					obj.Name(), pass.Fset.Position(putAt).Line)
			}
		}
		return true
	})
	track := func(obj types.Object) bool { _, isDead := dead[obj]; return isDead }
	for _, u := range x.vals.Uses(n, track) {
		if putArgPos[u.Pos] || seen[u.Pos] {
			continue
		}
		seen[u.Pos] = true
		putAt := pass.Fset.Position(dead[u.Obj]).Line
		pass.Reportf(u.Pos,
			"pooled buffer %s %s after PutBuf (line %d): the pool may already have handed its backing array to another goroutine",
			u.Obj.Name(), u.Kind, putAt)
	}
}
