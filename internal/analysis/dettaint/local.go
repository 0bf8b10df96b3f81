package dettaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// checker runs the per-package rules: the sim-state ban with its map-range
// collection discipline, and the module-wide float-order rule.
type checker struct {
	pass *framework.Pass
	info *types.Info
	// seen deduplicates findings: a nested map range or loop is walked once
	// per enclosing range, but each finding reports once.
	seen map[finding]bool
}

type finding struct {
	pos token.Pos
	msg string
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	f := finding{pos, fmt.Sprintf(format, args...)}
	if !c.seen[f] {
		c.seen[f] = true
		c.pass.Report(framework.Diagnostic{Pos: pos, Message: f.msg, Analyzer: c.pass.Analyzer.Name})
	}
}

func run(pass *framework.Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	c := &checker{pass: pass, info: pass.TypesInfo, seen: map[finding]bool{}}
	simState := SimStatePattern.MatchString(pass.Pkg.Path())
	for _, file := range pass.Files {
		var stack []ast.Node // enclosing nodes, to find a range's function
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				if !simState {
					break
				}
				if src := sourceOf(c.info, n); src != "" {
					c.reportf(n.Pos(), "%s in simulation-state package: derive time from the cycle counter and randomness from a seeded rand.New", src)
				}
			case *ast.RangeStmt:
				if isMapRange(c.info, n) && !pass.Directive(n.Pos(), "//simlint:ordered") {
					c.checkFloats(n.Body, "map iteration")
					if simState {
						c.checkMapRange(enclosingFunc(stack), n)
					}
				}
				c.checkGoAccum(n.Body)
			case *ast.ForStmt:
				c.checkGoAccum(n.Body)
			}
			return true
		})
	}
	return nil
}

// enclosingFunc returns the innermost FuncDecl or FuncLit on stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Float order.

// checkGoAccum flags float accumulation into captured variables from
// goroutines launched inside a loop: the writes land in scheduler order.
func (c *checker) checkGoAccum(loopBody *ast.BlockStmt) {
	ast.Inspect(loopBody, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				c.checkFloats(lit.Body, "per-iteration goroutine")
			}
		}
		return true
	})
}

// checkFloats reports float accumulation inside body into a variable not
// declared within it (locals of body are fresh per iteration / goroutine):
// `x op= v`, or the spelled-out `x = x op v` / `x = v op x`.
func (c *checker) checkFloats(body *ast.BlockStmt, ctx string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isGo := n.(*ast.GoStmt); isGo && ctx == "map iteration" {
			return false // checkGoAccum owns goroutine bodies
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isFloat(c.info.TypeOf(as.Lhs[0])) {
			return true
		}
		obj := lhsObject(c.info, as.Lhs[0])
		if obj == nil || declaredWithin(obj, body) {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		case token.ASSIGN:
			if !c.selfReferential(as.Rhs[0], obj) {
				return true
			}
		default:
			return true
		}
		c.reportf(as.Pos(), "float accumulation into %s inside %s: float ops are not associative, so the result depends on visit order; accumulate in a sorted order",
			obj.Name(), ctx)
		return true
	})
}

// selfReferential reports whether rhs is an arithmetic expression that
// reads obj.
func (c *checker) selfReferential(rhs ast.Expr, obj types.Object) bool {
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.ADD && bin.Op != token.SUB && bin.Op != token.MUL && bin.Op != token.QUO) {
		return false
	}
	reads := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.info.ObjectOf(id) == obj {
			reads = true
		}
		return !reads
	})
	return reads
}

func lhsObject(info *types.Info, lhs ast.Expr) types.Object {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return info.ObjectOf(l)
	case *ast.SelectorExpr:
		return info.ObjectOf(l.Sel)
	case *ast.IndexExpr:
		return lhsObject(info, l.X)
	case *ast.StarExpr:
		return lhsObject(info, l.X)
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// ---------------------------------------------------------------------------
// Sim-state map-range discipline.

// pureCallPkgs are packages whose functions are pure and order-safe to call
// from inside a map-iteration body.
var pureCallPkgs = map[string]bool{"math": true, "math/bits": true}

// checkMapRange enforces the collection discipline in a sim-state package:
// a map-iteration body may only write function-local state through
// order-independent stores (keyed writes, integer accumulation) or append
// into a local slice that is sorted after the loop. Calls with side
// effects, non-local or through-pointer writes, sends, goroutines, defers,
// element-dependent returns, and unsorted appends report.
func (c *checker) checkMapRange(fn ast.Node, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkBodyCall(n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkStore(fn, lhs)
			}
		case *ast.IncDecStmt:
			c.checkStore(fn, n.X)
		case *ast.SendStmt:
			c.reportf(n.Pos(), "channel send inside map iteration publishes elements in map order")
		case *ast.GoStmt:
			c.reportf(n.Pos(), "goroutine launched inside map iteration: scheduling becomes map-order dependent")
		case *ast.DeferStmt:
			c.reportf(n.Pos(), "defer inside map iteration runs in map order")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if tv, ok := c.info.Types[res]; !ok || tv.Value == nil { // a constant result hides which element matched
					c.reportf(n.Pos(), "return of element-dependent value inside map iteration: which element wins depends on map order")
					break
				}
			}
		}
		return true
	})
	for obj, pos := range unsortedAppends(c.info, fn, rng) {
		if declaredWithin(obj, fn) { // checkStore reports non-local appends
			c.reportf(pos, "%s accumulates map keys/values in map order and is never sorted; sort it after the loop or mark the loop //simlint:ordered", obj.Name())
		}
	}
}

func (c *checker) checkBodyCall(call *ast.CallExpr) {
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversions are pure
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	if path, _, ok := c.pass.ImportedPath(call.Fun); ok && pureCallPkgs[path] {
		return
	}
	c.reportf(call.Pos(), "call with potential side effects inside map iteration: effects occur in map order")
}

// checkStore classifies one written lvalue inside a map-range body.
func (c *checker) checkStore(fn ast.Node, lhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	root, deref := c.rootIdent(lhs)
	if root == nil {
		c.reportf(lhs.Pos(), "write through non-addressable expression inside map iteration")
		return
	}
	obj := c.info.ObjectOf(root)
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() || !declaredWithin(obj, fn) {
		c.reportf(lhs.Pos(), "write to non-local %s inside map iteration: state mutates in map order", root.Name)
		return
	}
	if deref {
		c.reportf(lhs.Pos(), "write through pointer %s inside map iteration may mutate shared state in map order", root.Name)
	}
}

// rootIdent walks an lvalue to its base identifier, noting whether the path
// crosses a pointer dereference (explicit * or implicit via selector/index
// on a pointer).
func (c *checker) rootIdent(e ast.Expr) (root *ast.Ident, deref bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, deref
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			deref, e = true, x.X
		case *ast.SelectorExpr:
			deref = deref || c.isPointer(x.X)
			e = x.X
		case *ast.IndexExpr:
			deref = deref || c.isPointer(x.X)
			e = x.X
		default:
			return nil, deref
		}
	}
}

func (c *checker) isPointer(e ast.Expr) bool {
	t := c.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
