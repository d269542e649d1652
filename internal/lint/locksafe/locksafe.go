// Package locksafe implements the `locksafe` analyzer: mutexes in every
// package of the module follow three rules that a data race or deadlock
// would otherwise smuggle past review. First, every sync.Mutex/RWMutex
// acquired in a function is released on every path out of it — early
// returns and panic paths included, where only a registered
// `defer mu.Unlock()` counts. Second,
// no path re-acquires a lock it already holds (Go mutexes are not
// reentrant: a double Lock deadlocks the goroutine, silently freezing
// one process of the cluster rather than crashing it). Third, when two
// named locks are ever held together, every function of the package
// agrees on the acquisition order — an inversion between two call sites
// is a textbook ABBA deadlock.
//
// The analysis is a forward dataflow over the ctrlflow graphs. The fact
// is the set of held locks — keyed by the receiver expression's
// variable and selector path, with read (RLock) and write (Lock) modes
// distinct — plus, per lock, whether a releasing defer has been
// registered on this path. Joins are may-analysis unions: a lock held
// on any path into a block counts as held, so a leak on one early
// return is reported even when the main path is clean. The tracker is
// syntactic and shallow on purpose: receivers it cannot name (index
// chains, call results) are not tracked, and a conditional
// lock/unlock pair split across two if-blocks is beyond it — such a
// site can annotate with //lint:allow locksafe <why>.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"nuconsensus/internal/lint/analysis"
	"nuconsensus/internal/lint/ctrlflow"
	"nuconsensus/internal/lint/flow"
)

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "mutexes are released on all paths, never re-acquired while held, and acquired in one order per package",
	Run:  run,
}

// lockKey identifies one lock within a function: the variable at the
// base of the receiver expression, the selector path written at the
// call site, and the mode (RLock and Lock of the same mutex are
// distinct holds with distinct releases).
type lockKey struct {
	base types.Object
	path string
	read bool
}

func (k lockKey) display() string {
	if k.read {
		return k.path + " (read)"
	}
	return k.path
}

// lockInfo is the per-lock fact: where the hold began and whether a
// releasing defer is registered on this path.
type lockInfo struct {
	pos      token.Pos
	deferred bool
}

// heldMap is the dataflow fact: the locks that may be held.
type heldMap map[lockKey]lockInfo

// orderTable accumulates acquisition-order pairs across the package:
// order[A][B] holds the position where B was first acquired under A.
type orderTable map[string]map[string]token.Pos

func (o orderTable) add(before, after string, pos token.Pos) {
	m := o[before]
	if m == nil {
		m = make(map[string]token.Pos)
		o[before] = m
	}
	if _, ok := m[after]; !ok {
		m[after] = pos
	}
}

func run(pass *analysis.Pass) (interface{}, error) {
	order := orderTable{}
	for _, fi := range ctrlflow.Funcs(pass) {
		checkFunc(pass, fi, order)
	}
	return nil, nil
}

// locks is the flow.Facts instance for one function.
type locks struct {
	pass *analysis.Pass
	// report/order are nil during the fixpoint solve; the replay walk
	// sets them so double-lock and inversion diagnostics fire exactly
	// once, against converged in-facts.
	order orderTable
	seen  map[token.Pos]bool
}

func (locks) Bottom() heldMap { return heldMap{} }
func (locks) Entry() heldMap  { return heldMap{} }

func (locks) Join(dst, src heldMap) heldMap {
	for k, info := range src {
		cur, ok := dst[k]
		if !ok {
			dst[k] = info
			continue
		}
		// Earliest acquisition wins for stable positions; a release
		// defer only counts if every joined path registered it.
		if info.pos < cur.pos {
			cur.pos = info.pos
		}
		cur.deferred = cur.deferred && info.deferred
		dst[k] = cur
	}
	return dst
}

func (locks) Equal(a, b heldMap) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ai := range a {
		if bi, ok := b[k]; !ok || ai != bi {
			return false
		}
	}
	return true
}

func (x locks) Transfer(b *flow.Block, in heldMap) heldMap {
	out := heldMap{}
	for k, v := range in {
		out[k] = v
	}
	for _, n := range b.Nodes {
		x.transferNode(n, out, false)
	}
	return out
}

// transferNode applies one block node to the held set. With report set
// (the replay walk), double-lock and order-inversion diagnostics are
// emitted against the pre-state of each call.
func (x locks) transferNode(n ast.Node, held heldMap, report bool) {
	flow.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			if key, op, ok := x.lockCall(m.Call); ok && (op == "Unlock" || op == "RUnlock") {
				if info, isHeld := held[key]; isHeld {
					info.deferred = true
					held[key] = info
				}
			}
			return false
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			key, op, ok := x.lockCall(m)
			if !ok {
				return true
			}
			switch op {
			case "Lock", "RLock":
				if report {
					x.reportAcquire(m, key, held)
				}
				held[key] = lockInfo{pos: m.Pos()}
			case "Unlock", "RUnlock":
				delete(held, key)
			}
		}
		return true
	})
}

// reportAcquire fires the double-lock and order-inversion diagnostics
// for one acquisition against the locks already held.
func (x locks) reportAcquire(call *ast.CallExpr, key lockKey, held heldMap) {
	if x.seen[call.Pos()] {
		return
	}
	// Double acquisition: a write lock deadlocks against any held mode
	// of the same mutex; a read lock only against a held write mode
	// (concurrent RLocks are legal).
	for _, mode := range []bool{false, true} {
		prev := lockKey{base: key.base, path: key.path, read: mode}
		info, isHeld := held[prev]
		if !isHeld || (key.read && mode) {
			continue
		}
		x.seen[call.Pos()] = true
		x.pass.Reportf(call.Pos(),
			"%s of %s while %s is still held (since line %d): Go mutexes are not reentrant, this deadlocks the goroutine",
			lockOp(key), key.path, prev.display(), x.pass.Fset.Position(info.pos).Line)
		return
	}
	name, ok := stableName(x.pass, key)
	if !ok {
		return
	}
	heldKeys := make([]lockKey, 0, len(held))
	for heldKey := range held {
		heldKeys = append(heldKeys, heldKey)
	}
	sort.Slice(heldKeys, func(i, j int) bool { return held[heldKeys[i]].pos < held[heldKeys[j]].pos })
	for _, heldKey := range heldKeys {
		heldName, ok := stableName(x.pass, heldKey)
		if !ok || heldName == name {
			continue
		}
		if firstPos, inverted := x.order[name][heldName]; inverted && !x.seen[call.Pos()] {
			x.seen[call.Pos()] = true
			x.pass.Reportf(call.Pos(),
				"lock order inversion: %s acquired while holding %s, but at line %d the opposite order is used — inconsistent order deadlocks under contention",
				name, heldName, x.pass.Fset.Position(firstPos).Line)
		}
		x.order.add(heldName, name, call.Pos())
	}
}

func lockOp(key lockKey) string {
	if key.read {
		return "RLock"
	}
	return "Lock"
}

// lockCall recognizes a sync.Mutex / sync.RWMutex method call with a
// nameable receiver and returns its key and operation.
func (x locks) lockCall(call *ast.CallExpr) (lockKey, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	fn, ok := x.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockKey{}, "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isSyncMutex(recv.Type()) {
		return lockKey{}, "", false
	}
	base, path, ok := receiverPath(x.pass, sel.X)
	if !ok {
		return lockKey{}, "", false
	}
	key := lockKey{base: base, path: path, read: op == "RLock" || op == "RUnlock"}
	return key, op, true
}

// isSyncMutex reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// receiverPath renders the receiver expression as a dotted path rooted
// at a variable: mu, c.mu, r.state.mu. Anything else (index chains,
// call results) is not nameable and not tracked.
func receiverPath(pass *analysis.Pass, e ast.Expr) (types.Object, string, bool) {
	var parts []string
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			parts = append([]string{t.Sel.Name}, parts...)
			e = t.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[t]
			if obj == nil {
				obj = pass.TypesInfo.Defs[t]
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return nil, "", false
			}
			return obj, strings.Join(append([]string{t.Name}, parts...), "."), true
		default:
			return nil, "", false
		}
	}
}

// stableName maps a lock key to a package-level identity usable in the
// cross-function order table: Type.field.path for a
// field of a named struct, pkg.var for a package-level mutex. Locals
// have no stable identity — each call owns its own — so they never
// participate in ordering.
func stableName(pass *analysis.Pass, key lockKey) (string, bool) {
	v, ok := key.base.(*types.Var)
	if !ok {
		return "", false
	}
	rest := ""
	if i := strings.IndexByte(key.path, '.'); i >= 0 {
		rest = key.path[i:]
	}
	if isPkgLevel(v) {
		return v.Pkg().Name() + "." + key.path, true
	}
	if rest == "" {
		return "", false // a bare local mutex
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return named.Obj().Name() + rest, true
}

func isPkgLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkFunc solves the held-lock dataflow for one function, replays the
// blocks for double-lock and inversion diagnostics, and reports locks
// still held at the exit.
func checkFunc(pass *analysis.Pass, fi *ctrlflow.FuncInfo, order orderTable) {
	x := locks{pass: pass, order: order, seen: map[token.Pos]bool{}}
	sol := flow.Solve[heldMap](fi.Graph, flow.Forward, x)
	for _, b := range fi.Graph.Blocks {
		if !b.Live {
			continue
		}
		held := heldMap{}
		x.Join(held, sol.In[b.Index])
		for _, n := range b.Nodes {
			x.transferNode(n, held, true)
		}
	}
	exit := sol.In[fi.Graph.Exit.Index]
	leaked := make([]lockKey, 0, len(exit))
	for k, info := range exit {
		if !info.deferred {
			leaked = append(leaked, k)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return exit[leaked[i]].pos < exit[leaked[j]].pos })
	for _, k := range leaked {
		pass.Reportf(exit[k].pos,
			"%s of %s is not released on every path out of %s: unlock before each return and panic, or register defer %s",
			lockOp(k), k.display(), fi.Name, releaseName(k))
	}
}

func releaseName(k lockKey) string {
	if k.read {
		return k.path + ".RUnlock()"
	}
	return k.path + ".Unlock()"
}
