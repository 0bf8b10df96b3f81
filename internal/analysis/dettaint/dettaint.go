// Package dettaint guards the simulator's bit-exact determinism: Fig12
// tables byte-identical across 1 and 3 nodes, bit-exact skip and lockstep
// runs, and content-addressed result caching all assume that a (Config, trace)
// pair fully determines every output. One source model — wall clocks and
// timers, the unseeded math/rand stream, crypto/rand, os.Getpid,
// runtime.NumGoroutine — serves three rules:
//
//   - In simulation-state packages (SimStatePattern) every source is a
//     sink: any call reports, and map iterations must follow a collection
//     discipline so Go's randomized map order cannot leak into state.
//   - Module-wide, a tainted value must not reach a result-affecting sink:
//     sim.Result or sim.Config fields, service.EncodeRecord, or the
//     figures/report tables. Taint starts at sources, at values bound in a
//     multi-way select, and at slices appended in map order and never
//     sorted; it flows through local def-use chains and across packages
//     through return values on the module call graph.
//   - Module-wide, floats may not be re-accumulated in a map range or in a
//     per-iteration goroutine: float ops are not associative, so the sum's
//     low bits follow the visit order.
//
// The one reviewed escape is line-scoped (same line or the line above) on
// a map range and silences all three rules for that loop:
//
//	//simlint:ordered    this map iteration is order-insensitive
package dettaint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis/framework"
)

// SimStatePattern selects the packages whose import paths hold
// simulation-visible state or deterministic output: the model packages
// (fingerprint and Result bit-identity) plus figures/report (byte-identical
// table emission, pinned by the service golden tests). Everything outside
// it (service, obs, tooling) may read clocks as long as the value stays out
// of the result sinks. The fixture trees embed "internal/sim" in their
// paths on purpose so the same default applies.
var SimStatePattern = regexp.MustCompile(`internal/(sim|cpu|emc|mem|interconnect|bpred|prefetch|vm|figures|report)(/|$)`)

// Analyzer is the dettaint pass.
var Analyzer = &framework.Analyzer{
	Name: "dettaint",
	Doc: "nondeterminism must not reach simulation state, result sinks, or float sums\n\n" +
		"Clocks and entropy are banned in simulation-state packages, tracked across packages into sim.Result/Config fields, EMCR records, and figure tables, and float sums may not follow map or goroutine order.",
	Run:       run,
	RunModule: runModule,
}

// sources maps package path -> function name -> what a call reads. The "*"
// entry makes every package-level function of the package a source.
var sources = map[string]map[string]string{
	"time": {
		"Now":       "wall clock",
		"Since":     "wall clock",
		"Until":     "wall clock",
		"After":     "wall-clock timer",
		"AfterFunc": "wall-clock timer",
		"Tick":      "wall-clock timer",
		"NewTicker": "wall-clock timer",
		"NewTimer":  "wall-clock timer",
		"Sleep":     "wall-clock dependence",
	},
	"math/rand":    {"*": "unseeded global random stream"},
	"math/rand/v2": {"*": "unseeded global random stream"},
	"crypto/rand":  {"*": "entropy"},
	"os":           {"Getpid": "process id"},
	"runtime":      {"NumGoroutine": "scheduler state"},
}

// randConstructors are the seedable constructors of math/rand[/v2]: called
// with an explicit seed they give reproducible streams, the repo's
// sanctioned pattern.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sourceOf classifies call as a nondeterminism source, returning e.g.
// "time.Now (wall clock)", or "" when the call is deterministic. Methods
// are never sources: a *rand.Rand built by a seeded constructor is
// reproducible, and time.Time arithmetic only propagates a value whose
// origin was already a source.
func sourceOf(info *types.Info, call *ast.CallExpr) string {
	fn := framework.CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	what, ok := sources[path][name]
	if !ok && !randConstructors[name] {
		what, ok = sources[path]["*"]
	}
	if !ok {
		return ""
	}
	return path + "." + name + " (" + what + ")"
}

func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func declaredWithin(obj types.Object, scope ast.Node) bool {
	return scope != nil && obj.Pos() >= scope.Pos() && obj.Pos() <= scope.End()
}

// sortCalls recognizes "this slice gets sorted" call sites.
var sortCalls = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Sort": true, "Stable": true, "Slice": true, "SliceStable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// unsortedAppends returns the slices that rng's body appends to and that
// no sort call after the loop within scope orders, each with its first
// append's position. A slice declared inside the body is fresh on every
// iteration, so map order cannot reach it.
func unsortedAppends(info *types.Info, scope ast.Node, rng *ast.RangeStmt) map[types.Object]token.Pos {
	out := map[types.Object]token.Pos{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, isIdent := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !isIdent || !isCall {
			return true
		}
		if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil || declaredWithin(obj, rng.Body) {
			return true
		}
		if _, seen := out[obj]; !seen && !sortedAfter(info, scope, obj, rng.End()) {
			out[obj] = as.Pos()
		}
		return true
	})
	return out
}

// sortedAfter reports whether obj is passed to a recognized sort call after
// pos within scope.
func sortedAfter(info *types.Info, scope ast.Node, obj types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok || call.Pos() < after || len(call.Args) == 0 {
			return !found
		}
		fn := framework.CalleeOf(info, call)
		if fn == nil || fn.Pkg() == nil || !sortCalls[fn.Pkg().Path()][fn.Name()] {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
