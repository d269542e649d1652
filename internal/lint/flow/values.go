package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Values tracks the local variables of one function body: their def
// sites, the alias classes induced by simple assignments (x := y,
// x = y, x = y[lo:hi] — forms that share the same backing store), and a
// classifier for how each occurrence of a variable is used (read,
// write-through, or one of the escape shapes). It is deliberately
// shallow: anything beyond ident-and-reslice aliasing (pointer
// indirection, container round-trips) is out of scope, and analyzers on
// top are expected to be correspondingly conservative.
type Values struct {
	info  *types.Info
	class map[types.Object]*aliasClass
}

// aliasClass is one union-find node over variables sharing a backing
// store.
type aliasClass struct {
	parent *aliasClass
}

func (c *aliasClass) find() *aliasClass {
	for c.parent != nil {
		if c.parent.parent != nil {
			c.parent = c.parent.parent // path halving
		}
		c = c.parent
	}
	return c
}

// UseKind classifies one occurrence of a tracked variable.
type UseKind int

const (
	UseRead          UseKind = iota // value read (index, copy source, comparison …)
	UseWrite                        // written through: v[i] = x, append target
	UseEscapeArg                    // passed to a call
	UseEscapeReturn                 // returned from the function
	UseEscapeStore                  // stored into a field, global, map, slice, channel or composite
	UseEscapeCapture                // captured by a nested func literal
)

func (k UseKind) String() string {
	switch k {
	case UseRead:
		return "read"
	case UseWrite:
		return "written through"
	case UseEscapeArg:
		return "passed to a call"
	case UseEscapeReturn:
		return "returned"
	case UseEscapeStore:
		return "stored"
	case UseEscapeCapture:
		return "captured by a closure"
	}
	return "used"
}

// A Use is one classified occurrence of a tracked variable.
type Use struct {
	Obj  types.Object
	Pos  token.Pos
	Kind UseKind
}

// NewValues analyzes one function body (or any statement tree) and
// returns its value-tracking tables.
func NewValues(info *types.Info, body ast.Node) *Values {
	v := &Values{
		info:  info,
		class: make(map[types.Object]*aliasClass),
	}
	classFor := func(obj types.Object) *aliasClass {
		c, ok := v.class[obj]
		if !ok {
			c = &aliasClass{}
			v.class[obj] = c
		}
		return c.find()
	}
	union := func(a, b types.Object) {
		ca, cb := classFor(a), classFor(b)
		if ca != cb {
			cb.parent = ca
		}
	}
	pair := func(lhs, rhs ast.Expr) {
		lid, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		lobj := v.objOfIdent(lid)
		if lobj == nil {
			return
		}
		if robj := v.DerivedFrom(rhs); robj != nil {
			union(lobj, robj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					pair(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					pair(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return v
}

// objOfIdent resolves an identifier to the variable it defines or uses.
func (v *Values) objOfIdent(id *ast.Ident) types.Object {
	if obj := v.info.Defs[id]; obj != nil {
		return obj
	}
	if obj := v.info.Uses[id]; obj != nil {
		if _, ok := obj.(*types.Var); ok {
			return obj
		}
	}
	return nil
}

// DerivedFrom resolves an expression to the variable whose backing store
// its value shares: a bare identifier, a reslice chain over one
// (b[lo:hi], b[lo:hi:max]), or either wrapped in parentheses. It returns
// nil for anything else.
func (v *Values) DerivedFrom(e ast.Expr) types.Object {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.Ident:
			return v.objOfIdent(t)
		default:
			return nil
		}
	}
}

// ClassMembers returns every variable sharing obj's alias class,
// including obj itself, ordered by declaration position so dependents
// iterate deterministically.
func (v *Values) ClassMembers(obj types.Object) []types.Object {
	c, ok := v.class[obj]
	if !ok {
		return []types.Object{obj}
	}
	root := c.find()
	var out []types.Object
	for o, oc := range v.class {
		if oc.find() == root {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// Uses classifies every occurrence of a variable for which track returns
// true within one block-owned node. The classification is contextual:
// the same identifier is a write target under v[i] = x, an escape under
// return v, and a plain read elsewhere. Bare redefinitions (v = …, v :=
// …) are not uses — the analyzer sees the assignment itself.
func (v *Values) Uses(n ast.Node, track func(types.Object) bool) []Use {
	var out []Use
	emit := func(obj types.Object, pos token.Pos, kind UseKind) {
		if obj != nil && track(obj) {
			out = append(out, Use{Obj: obj, Pos: pos, Kind: kind})
		}
	}
	var scan func(n ast.Node)
	scan = func(n ast.Node) {
		if n == nil {
			return
		}
		Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				v.scanAssign(m, emit, scan)
				return false
			case *ast.ValueSpec:
				for _, val := range m.Values {
					if v.DerivedFrom(val) != nil {
						continue // alias def: no use
					}
					scan(val)
				}
				return false
			case *ast.RangeStmt:
				// Only the range operand is owned here; Key/Value are
				// definitions, not uses.
				if obj := v.DerivedFrom(m.X); obj != nil {
					emit(obj, m.X.Pos(), UseRead)
				} else {
					scan(m.X)
				}
				return false
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					if obj := v.DerivedFrom(r); obj != nil {
						emit(obj, r.Pos(), UseEscapeReturn)
					} else {
						scan(r)
					}
				}
				return false
			case *ast.CallExpr:
				v.scanCall(m, emit, scan)
				return false
			case *ast.SendStmt:
				if obj := v.DerivedFrom(m.Value); obj != nil {
					emit(obj, m.Value.Pos(), UseEscapeStore)
				} else {
					scan(m.Value)
				}
				scan(m.Chan)
				return false
			case *ast.CompositeLit:
				for _, elt := range m.Elts {
					val := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						scan(kv.Key)
						val = kv.Value
					}
					if obj := v.DerivedFrom(val); obj != nil {
						emit(obj, val.Pos(), UseEscapeStore)
					} else {
						scan(val)
					}
				}
				return false
			case *ast.FuncLit:
				ast.Inspect(m.Body, func(inner ast.Node) bool {
					if id, ok := inner.(*ast.Ident); ok {
						if obj := v.objOfIdent(id); obj != nil {
							emit(obj, id.Pos(), UseEscapeCapture)
						}
					}
					return true
				})
				return false
			case *ast.Ident:
				emit(v.objOfIdent(m), m.Pos(), UseRead)
				return false
			}
			return true
		})
	}
	scan(n)
	return out
}

// scanAssign classifies an assignment: writes through tracked targets
// (v[i] = x), stores of tracked values into escaping lvalues, alias
// definitions (no use), and plain reads inside either side.
func (v *Values) scanAssign(a *ast.AssignStmt, emit func(types.Object, token.Pos, UseKind), scan func(ast.Node)) {
	balanced := len(a.Lhs) == len(a.Rhs)
	for _, lhs := range a.Lhs {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			// Redefinition of a tracked var: not a use of its old value.
		case *ast.IndexExpr:
			if obj := v.DerivedFrom(l.X); obj != nil {
				emit(obj, l.Pos(), UseWrite)
			} else {
				scan(l.X)
			}
			scan(l.Index)
		default:
			scan(l)
		}
	}
	for i, rhs := range a.Rhs {
		obj := v.DerivedFrom(rhs)
		if obj == nil {
			scan(rhs)
			continue
		}
		// A tracked value on the right: its fate depends on the target.
		escapes := true
		if balanced {
			if l, ok := ast.Unparen(a.Lhs[i]).(*ast.Ident); ok {
				if lobj := v.objOfIdent(l); lobj != nil && !isGlobal(lobj) {
					escapes = false // local alias def
				}
			}
		}
		if escapes {
			emit(obj, rhs.Pos(), UseEscapeStore)
		}
	}
}

// scanCall classifies call arguments: len/cap are benign, append writes
// through its first argument and reads the rest, any other call is an
// escape of tracked arguments.
func (v *Values) scanCall(call *ast.CallExpr, emit func(types.Object, token.Pos, UseKind), scan func(ast.Node)) {
	scan(call.Fun)
	builtin := ""
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := v.info.Uses[id].(*types.Builtin); isB {
			builtin = id.Name
		}
	}
	for i, arg := range call.Args {
		obj := v.DerivedFrom(arg)
		if obj == nil {
			scan(arg)
			continue
		}
		switch builtin {
		case "len", "cap":
			// Size queries do not touch the backing store.
		case "append":
			if i == 0 {
				emit(obj, arg.Pos(), UseWrite)
			} else {
				emit(obj, arg.Pos(), UseRead)
			}
		case "copy":
			if i == 0 {
				emit(obj, arg.Pos(), UseWrite)
			} else {
				emit(obj, arg.Pos(), UseRead)
			}
		default:
			emit(obj, arg.Pos(), UseEscapeArg)
		}
	}
}

// isGlobal reports whether obj is declared at package scope.
func isGlobal(obj types.Object) bool {
	return obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
