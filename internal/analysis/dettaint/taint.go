package dettaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"repro/internal/analysis/framework"
)

// Sink type/package patterns. Matched as path suffixes so the fixture
// trees (testdata/src/internal/sim) hit the same rules as the real tree.
var (
	resultPkgPattern = regexp.MustCompile(`internal/sim$`)
	tablePkgPattern  = regexp.MustCompile(`internal/(figures|report)$`)
)

// encodeRecordPattern matches the durable-record encoder's FuncKey.
var encodeRecordPattern = regexp.MustCompile(`internal/service\.EncodeRecord$`)

// funcFact is the cross-package summary of one function: does its return
// value carry taint, and from where.
type funcFact struct {
	reason string
	pos    token.Pos
}

type engine struct {
	mp *framework.ModulePass
	// tainted maps FuncKey -> why its return value is tainted.
	tainted map[string]funcFact
}

func runModule(mp *framework.ModulePass) error {
	e := &engine{mp: mp, tainted: map[string]funcFact{}}

	// Fixpoint: local dataflow per function computes "returns tainted"
	// given the current cross-package facts; iterate until no function
	// changes. Monotone (facts only get added), so it terminates; the
	// module's call-graph depth bounds the iteration count in practice.
	keys := e.sortedFuncKeys()
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			if _, done := e.tainted[key]; done {
				continue
			}
			fir := e.mp.IR.Funcs[key]
			if fact, isTainted := e.analyzeReturns(fir); isTainted {
				e.tainted[key] = fact
				changed = true
			}
		}
	}

	// Final pass: sink detection with the complete fact set.
	for _, key := range keys {
		e.checkSinks(e.mp.IR.Funcs[key])
	}
	return nil
}

func (e *engine) sortedFuncKeys() []string {
	keys := make([]string, 0, len(e.mp.IR.Funcs))
	for k := range e.mp.IR.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// localTaint computes the tainted objects of one function body to a local
// fixpoint, returning the taint reason per object.
func (e *engine) localTaint(fir *framework.FuncIR) map[types.Object]funcFact {
	taintedObjs := map[types.Object]funcFact{}
	for pass := 0; pass < 8; pass++ {
		changed := false
		for _, as := range fir.Assigns {
			if _, done := taintedObjs[as.Obj]; done {
				continue
			}
			var fact funcFact
			switch {
			case as.InSelect && as.RHS != nil && isCommReceive(as.RHS):
				fact = funcFact{reason: "multi-way select interleaving", pos: as.Pos}
			case as.RHS != nil:
				var ok bool
				fact, ok = e.exprTaint(fir, as.RHS, taintedObjs)
				if !ok {
					continue
				}
			default:
				continue
			}
			taintedObjs[as.Obj] = fact
			changed = true
		}
		if !changed {
			break
		}
	}
	// Map-order taint: slices appended to inside a map range, not sorted
	// afterwards, are order-tainted.
	for obj, pos := range e.mapOrderSlices(fir) {
		if _, done := taintedObjs[obj]; !done {
			taintedObjs[obj] = funcFact{reason: "map iteration order", pos: pos}
		}
	}
	return taintedObjs
}

// analyzeReturns reports whether fir returns a tainted value under the
// current cross-package facts.
func (e *engine) analyzeReturns(fir *framework.FuncIR) (funcFact, bool) {
	if len(fir.Returns) == 0 {
		return funcFact{}, false
	}
	taintedObjs := e.localTaint(fir)
	for _, ret := range fir.Returns {
		for _, res := range ret.Results {
			if fact, ok := e.exprTaint(fir, res, taintedObjs); ok {
				return funcFact{
					reason: fmt.Sprintf("%s returned by %s", fact.reason, framework.ShortKey(fir.Key)),
					pos:    fact.pos,
				}, true
			}
		}
	}
	return funcFact{}, false
}

// exprTaint reports whether expr derives from a taint source: a source
// call, a call to a tainted function, or a read of a tainted object.
func (e *engine) exprTaint(fir *framework.FuncIR, expr ast.Expr, taintedObjs map[types.Object]funcFact) (funcFact, bool) {
	var found funcFact
	ok := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a literal's body is its own dataflow domain
		case *ast.CallExpr:
			if reason := sourceOf(fir.Pkg.TypesInfo, n); reason != "" {
				found, ok = funcFact{reason: reason, pos: n.Pos()}, true
				return false
			}
			if callee := framework.CalleeOf(fir.Pkg.TypesInfo, n); callee != nil {
				if fact, hit := e.tainted[framework.FuncKey(callee)]; hit {
					found, ok = funcFact{reason: fact.reason, pos: n.Pos()}, true
					return false
				}
			}
		case *ast.Ident:
			if obj := fir.Pkg.TypesInfo.ObjectOf(n); obj != nil {
				if fact, hit := taintedObjs[obj]; hit {
					found, ok = fact, true
					return false
				}
			}
		}
		return true
	})
	return found, ok
}

// isCommReceive reports whether expr is (or contains) a channel receive —
// the shape of a select comm-clause binding.
func isCommReceive(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			found = true
		}
		return !found
	})
	return found
}

// mapOrderSlices finds the slices fir appends to in map order and never
// sorts — order-tainted values.
func (e *engine) mapOrderSlices(fir *framework.FuncIR) map[types.Object]token.Pos {
	info := fir.Pkg.TypesInfo
	out := map[types.Object]token.Pos{}
	if fir.Body == nil {
		return out
	}
	ast.Inspect(fir.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if ok && isMapRange(info, rng) && !e.mp.Directive(rng.Pos(), "//simlint:ordered") {
			for obj, pos := range unsortedAppends(info, fir.Body, rng) {
				if _, seen := out[obj]; !seen {
					out[obj] = pos
				}
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Sinks.

// checkSinks reports tainted values reaching result-affecting sinks in fir.
func (e *engine) checkSinks(fir *framework.FuncIR) {
	info := fir.Pkg.TypesInfo
	taintedObjs := e.localTaint(fir)

	report := func(pos token.Pos, sink string, fact funcFact) {
		e.mp.Reportf(pos, "%s receives a nondeterministic value: %s at %s; run-to-run bytes diverge, derive it from deterministic state",
			sink, fact.reason, e.mp.Fset.Position(fact.pos))
	}

	// Field writes into sim.Result / sim.Config.
	for _, as := range fir.Assigns {
		if as.LHS == nil || as.RHS == nil {
			continue
		}
		sink, isSink := sinkField(info, as.LHS)
		if !isSink {
			continue
		}
		if fact, ok := e.exprTaint(fir, as.RHS, taintedObjs); ok {
			report(as.Pos, sink, fact)
		}
	}

	if fir.Body == nil {
		return
	}
	ast.Inspect(fir.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			// sim.Result{...} / sim.Config{...} literals.
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			name, pkgPath, isNamed := namedType(tv.Type)
			if !isNamed || !resultPkgPattern.MatchString(pkgPath) || (name != "Result" && name != "Config") {
				return true
			}
			for _, elt := range n.Elts {
				val := elt
				field := ""
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						field = "." + id.Name
					}
				}
				if fact, ok := e.exprTaint(fir, val, taintedObjs); ok {
					report(val.Pos(), "sim."+name+field, fact)
				}
			}
		case *ast.CallExpr:
			callee := framework.CalleeOf(info, n)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			key := framework.FuncKey(callee)
			sink := ""
			switch {
			case encodeRecordPattern.MatchString(key):
				sink = "durable record (service.EncodeRecord)"
			case tablePkgPattern.MatchString(callee.Pkg().Path()) && ast.IsExported(callee.Name()):
				sink = "figure/report table (" + framework.ShortKey(key) + ")"
			default:
				return true
			}
			for _, arg := range n.Args {
				if fact, ok := e.exprTaint(fir, arg, taintedObjs); ok {
					report(arg.Pos(), sink, fact)
				}
			}
		}
		return true
	})
}

// sinkField classifies an assignment LHS as a sim.Result / sim.Config
// field write, walking selector chains (res.Stats.Cycles hits Result via
// its base).
func sinkField(info *types.Info, lhs ast.Expr) (string, bool) {
	e := ast.Unparen(lhs)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		if t := typeOf(info, sel.X); t != nil {
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if name, pkgPath, isNamed := namedType(t); isNamed && resultPkgPattern.MatchString(pkgPath) {
				if name == "Result" {
					return "sim.Result." + sel.Sel.Name, true
				}
				if name == "Config" {
					return "sim.Config." + sel.Sel.Name + " (a Fingerprint input)", true
				}
			}
		}
		e = ast.Unparen(sel.X)
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func namedType(t types.Type) (name, pkgPath string, ok bool) {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Name(), named.Obj().Pkg().Path(), true
}
