package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the cross-package dataflow layer: an SSA-lite IR built once
// per driver run from every loaded package. It deliberately stops far short
// of real SSA — no phi nodes, no basic blocks — because the module's
// analyzers need exactly three things: per-function def-use chains (which
// objects a function assigns, from which expressions), a module-wide call
// graph with stable cross-package function keys, and a worklist fixpoint
// helper to push analyzer-defined facts along that graph (the modular-facts
// idea from go/analysis, minus the serialization, since the whole module is
// loaded in one process anyway).

// FuncKey is the stable, cross-package identity of a function or method:
// "pkgpath.Name" for package functions, "pkgpath.(Recv).Name" for methods
// (pointerness of the receiver is erased — taint and stop-evidence facts do
// not care which method set resolved the call). Keys are strings, not
// *types.Func, because each package is type-checked against gc export data:
// the same method seen from two importing packages is two distinct objects.
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := "?"
		switch t := t.(type) {
		case *types.Named:
			name = t.Obj().Name()
		case *types.Alias:
			name = t.Obj().Name()
		case interface{ Obj() *types.TypeName }: // future named-like types
			name = t.Obj().Name()
		default:
			name = t.String()
		}
		return fmt.Sprintf("%s.(%s).%s", pkg, name, fn.Name())
	}
	return pkg + "." + fn.Name()
}

// ShortKey trims the module-path prefix off a FuncKey for readable
// diagnostics: "repro/internal/cluster.(Node).Close" -> "cluster.(Node).Close".
func ShortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// Assign is one def in a function's def-use chain: the object written, the
// expression it was written from (nil for `var x T` and for positions where
// no single RHS exists, e.g. multi-value unpacking), and the position.
type Assign struct {
	Obj types.Object
	LHS ast.Expr // nil when the def comes from a ValueSpec name
	RHS ast.Expr
	Pos token.Pos
	// InSelect is true when the def sits in a select CommClause of a
	// select with more than one communication case — the value's identity
	// depends on goroutine-send interleaving.
	InSelect bool
}

// FuncIR is the per-function slice of the IR.
type FuncIR struct {
	Key  string
	Pkg  *Package
	Body *ast.BlockStmt

	Assigns []Assign
	Returns []*ast.ReturnStmt
	Gos     []*ast.GoStmt
}

// ModuleIR holds the whole loaded module's IR plus the call graph.
type ModuleIR struct {
	// Funcs maps FuncKey -> IR for every declared function/method whose
	// body was loaded from source. Function literals have no key of their
	// own: their defs and go statements belong to the enclosing function.
	Funcs map[string]*FuncIR
	// Callers is the reverse call graph: callee FuncKey -> caller FuncKeys
	// (declared functions only; a call made inside a function literal is
	// attributed to the literal's enclosing declared function).
	Callers map[string][]string
}

// BuildModuleIR constructs the IR for every loaded package. Cost is one AST
// walk per file; analyzers share the result through the ModulePass.
func BuildModuleIR(pkgs []*Package) *ModuleIR {
	m := &ModuleIR{
		Funcs:   map[string]*FuncIR{},
		Callers: map[string][]string{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				key := FuncKey(obj)
				if key == "" {
					key = pkg.PkgPath + "." + fd.Name.Name
				}
				fir := &FuncIR{Key: key, Pkg: pkg, Body: fd.Body}
				m.scanBody(fir, pkg, fd.Body, key)
				m.Funcs[key] = fir
			}
		}
	}
	// Deterministic reverse edges (map insertion order varies with the
	// Funcs map above only through pkgs/file order, which is sorted by the
	// loader; still, sort callers for stable diagnostics).
	for k := range m.Callers {
		sort.Strings(m.Callers[k])
	}
	return m
}

// scanBody fills fir's def-use, return, and go-statement chains and adds
// its calls to the reverse call graph under enclosingKey. A nested function
// literal is scanned separately and its defs and go statements folded into
// fir (its returns are its own); its calls contribute reverse edges under
// the enclosing key so fact propagation sees through `go func(){...}()`
// bodies.
func (m *ModuleIR) scanBody(fir *FuncIR, pkg *Package, body *ast.BlockStmt, enclosingKey string) {
	// inSelect tracks whether the walk is inside a multi-way select.
	var walk func(n ast.Node, inSelect bool) bool
	var inspect func(n ast.Node, inSelect bool)
	inspect = func(n ast.Node, inSelect bool) {
		ast.Inspect(n, func(n ast.Node) bool { return walk(n, inSelect) })
	}
	walk = func(n ast.Node, inSelect bool) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A `go func(){...}` body is still this function's code as far
			// as taint and stop facts are concerned.
			var lit FuncIR
			m.scanBody(&lit, pkg, n.Body, enclosingKey)
			fir.Assigns = append(fir.Assigns, lit.Assigns...)
			fir.Gos = append(fir.Gos, lit.Gos...)
			return false
		case *ast.SelectStmt:
			multi := n.Body != nil && len(n.Body.List) > 1
			for _, cl := range n.Body.List {
				inspect(cl, inSelect || multi)
			}
			return false
		case *ast.GoStmt:
			fir.Gos = append(fir.Gos, n)
			return true
		case *ast.ReturnStmt:
			fir.Returns = append(fir.Returns, n)
			return true
		case *ast.CallExpr:
			if callee := CalleeOf(pkg.TypesInfo, n); callee != nil {
				key := FuncKey(callee)
				m.Callers[key] = appendUnique(m.Callers[key], enclosingKey)
			}
			return true
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				obj := assignedObject(pkg.TypesInfo, lhs)
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0] // multi-value unpack: all LHS taint from it
				}
				fir.Assigns = append(fir.Assigns, Assign{
					Obj: obj, LHS: lhs, RHS: rhs, Pos: lhs.Pos(), InSelect: inSelect,
				})
			}
			return true
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := pkg.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(n.Values) == len(n.Names) {
					rhs = n.Values[i]
				} else if len(n.Values) == 1 {
					rhs = n.Values[0]
				}
				fir.Assigns = append(fir.Assigns, Assign{
					Obj: obj, RHS: rhs, Pos: name.Pos(), InSelect: inSelect,
				})
			}
			return true
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e == nil {
					continue
				}
				if obj := assignedObject(pkg.TypesInfo, e); obj != nil {
					fir.Assigns = append(fir.Assigns, Assign{
						Obj: obj, LHS: e, RHS: n.X, Pos: e.Pos(), InSelect: inSelect,
					})
				}
			}
			return true
		}
		return true
	}
	inspect(body, false)
}

// CalleeOf resolves a call expression to the *types.Func it invokes:
// package functions, methods (through selections), and same-package
// identifiers. Function values, builtins, and type conversions yield nil.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified call pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// assignedObject resolves the object defined or used by an assignment LHS.
func assignedObject(info *types.Info, lhs ast.Expr) types.Object {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return nil
		}
		if obj := info.Defs[l]; obj != nil {
			return obj
		}
		return info.Uses[l]
	case *ast.SelectorExpr:
		return info.Uses[l.Sel]
	case *ast.StarExpr:
		return assignedObject(info, l.X)
	case *ast.IndexExpr:
		return assignedObject(info, l.X)
	}
	return nil
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// ---------------------------------------------------------------------------
// Fact propagation.

// Propagate pushes boolean facts from callees to callers until fixpoint: a
// function acquires the fact as soon as any function it calls holds it.
// seed maps FuncKey -> true for the functions where the fact originates;
// the returned map is the transitive closure over the reverse call graph.
// This is the shape goroutineleak's has-stop-evidence fact needs; dettaint
// runs its own fixpoint because its transfer function re-evaluates local
// def-use chains rather than a plain union.
func (m *ModuleIR) Propagate(seed map[string]bool) map[string]bool {
	facts := make(map[string]bool, len(seed))
	work := make([]string, 0, len(seed))
	for k, v := range seed {
		if v {
			facts[k] = true
			work = append(work, k)
		}
	}
	sort.Strings(work) // deterministic traversal order
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range m.Callers[k] {
			if !facts[caller] {
				facts[caller] = true
				work = append(work, caller)
			}
		}
	}
	return facts
}
