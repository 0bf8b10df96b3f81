// Package lockorder builds a module-wide mutex acquisition-order graph
// over the service and cluster layers and reports cycles — the static
// shadow of the deadlock the race detector can only catch when the
// interleaving cooperates. Locks are grouped into classes by owner type
// and field ("cluster.Node.mu", "service.fairQueue.mu", package-level vars
// by name); an edge A → B means some code path acquires a B-class lock
// while holding an A-class lock, either directly or through a call chain
// resolved on the module call graph. A cycle in the class graph is a
// potential deadlock: two goroutines entering it from different edges can
// block each other forever.
//
// Class-level analysis is deliberately coarser than instance-level: it
// cannot tell two job instances apart, so a function that locks one
// job while holding another's lock reports as a self-cycle even when
// the instances are provably distinct. That coarseness is the point — the
// fabric's invariants are stated per class ("never call into membership
// while holding Node.mu" is reviewable; "these two instances are never
// aliased" is not). A reviewed exception carries a line-scoped escape with
// a mandatory justification at the acquisition that closes the cycle:
//
//	//simlint:lockorderok <why these instances can never deadlock>
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// ScopePattern selects the packages whose lock graph is built: the
// concurrent serving layers. The simulator core is single-threaded per
// run; obs has two independent leaf mutexes. Fixture trees embed these
// paths so the default applies there too.
var ScopePattern = regexp.MustCompile(`internal/(service|cluster)(/|$)`)

// Analyzer is the lockorder pass.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "module-wide mutex acquisition-order cycles in service/cluster\n\n" +
		"An A->B edge means B is acquired while A is held (directly or through calls); a cycle is a potential deadlock.",
	RunModule: runModule,
}

// edge is one observed "acquire to while holding from".
type edge struct {
	from, to string
	pos      token.Pos // the acquisition (or call) that creates the edge
	fn       string    // function where it happens
}

type builder struct {
	mp    *framework.ModulePass
	edges map[[2]string]edge // first occurrence wins (stable positions)
	// acquires maps FuncKey -> lock classes the function may acquire
	// somewhere inside (locals included), before transitive closure.
	acquires map[string]map[string]token.Pos
}

func runModule(mp *framework.ModulePass) error {
	b := &builder{
		mp:       mp,
		edges:    map[[2]string]edge{},
		acquires: map[string]map[string]token.Pos{},
	}

	// Pass 1: local acquisition summaries for every scoped function.
	scoped := b.scopedFuncs()
	for _, fir := range scoped {
		b.acquires[fir.Key] = b.localAcquires(fir)
	}

	// Transitive closure per lock class over the call graph: for each
	// class, the set of functions that may acquire it grows to callers.
	closure := b.transitiveAcquires()

	// Pass 2: walk each function with a held-set, adding direct edges at
	// nested Lock calls and summary edges at calls into acquiring
	// functions.
	for _, fir := range scoped {
		b.walkFunc(fir, closure)
	}

	b.reportCycles()
	return nil
}

// scopedFuncs returns the IR of every declared function in scoped
// packages, in deterministic key order.
func (b *builder) scopedFuncs() []*framework.FuncIR {
	var keys []string
	for key, fir := range b.mp.IR.Funcs {
		if ScopePattern.MatchString(fir.Pkg.PkgPath) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	out := make([]*framework.FuncIR, 0, len(keys))
	for _, k := range keys {
		out = append(out, b.mp.IR.Funcs[k])
	}
	return out
}

// lockCall classifies a call expression as a mutex acquisition or release.
// kind: +1 acquire, -1 release, 0 neither. class is the lock's stable key.
func (b *builder) lockCall(fir *framework.FuncIR, call *ast.CallExpr) (kind int, class string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = 1
	case "Unlock", "RUnlock":
		kind = -1
	default:
		return 0, ""
	}
	callee := framework.CalleeOf(fir.Pkg.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return 0, ""
	}
	key, ok := framework.ExprKey(b.mp.Fset, fir.Pkg.TypesInfo, sel.X)
	if !ok {
		return 0, ""
	}
	return kind, key
}

// localAcquires collects every lock class fir may acquire directly
// (function literals included — the IR merges their calls).
func (b *builder) localAcquires(fir *framework.FuncIR) map[string]token.Pos {
	out := map[string]token.Pos{}
	for _, cs := range fir.Calls {
		if kind, class := b.lockCall(fir, cs.Call); kind > 0 {
			if _, seen := out[class]; !seen {
				out[class] = cs.Call.Pos()
			}
		}
	}
	return out
}

// transitiveAcquires closes the summaries over the call graph: per class,
// propagate "may acquire" from callees to callers, then invert back to a
// per-function class set.
func (b *builder) transitiveAcquires() map[string]map[string]bool {
	classes := map[string]bool{}
	for _, acq := range b.acquires {
		for c := range acq {
			classes[c] = true
		}
	}
	sortedClasses := make([]string, 0, len(classes))
	for c := range classes {
		sortedClasses = append(sortedClasses, c)
	}
	sort.Strings(sortedClasses)

	out := map[string]map[string]bool{}
	for _, c := range sortedClasses {
		seed := map[string]bool{}
		for fn, acq := range b.acquires {
			if _, ok := acq[c]; ok {
				seed[fn] = true
			}
		}
		for fn := range b.mp.IR.Propagate(seed) {
			m := out[fn]
			if m == nil {
				m = map[string]bool{}
				out[fn] = m
			}
			m[c] = true
		}
	}
	return out
}

// walkFunc interprets fir's body in source order with a held-lock stack,
// creating edges. Control-flow branches are entered with the current held
// set and restored after — acquisitions inside a branch do not leak past
// it, matching the tight lock/unlock pairing discipline of the tree.
func (b *builder) walkFunc(fir *framework.FuncIR, closure map[string]map[string]bool) {
	var body *ast.BlockStmt
	switch {
	case fir.Decl != nil:
		body = fir.Decl.Body
	case fir.Lit != nil:
		return // literal bodies are walked inline below, with the holder's held set
	}
	if body == nil {
		return
	}
	var held []string // acquisition order, innermost last

	pop := func(class string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == class {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	addEdge := func(to string, pos token.Pos) {
		for _, from := range held {
			if from == to {
				// Same-class nested acquisition: immediate report unless
				// escaped (class-level recursion is either a self-deadlock
				// or a reviewed two-instance pattern).
				if !b.mp.Directive(pos, "//simlint:lockorderok") {
					b.mp.Reportf(pos, "%s acquired while already held (class-level): sync mutexes are not reentrant; if these are provably distinct instances, annotate //simlint:lockorderok <why>",
						framework.ShortKey(to))
				}
				continue
			}
			k := [2]string{from, to}
			if _, ok := b.edges[k]; !ok {
				b.edges[k] = edge{from: from, to: to, pos: pos, fn: fir.Key}
			}
		}
	}

	var walkStmt func(n ast.Node)
	walkStmt = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			kind, class := b.lockCall(fir, n)
			switch kind {
			case 1:
				addEdge(class, n.Pos())
				held = append(held, class)
				return
			case -1:
				pop(class)
				return
			}
			// Non-lock call: walk arguments first (they evaluate before the
			// call), then apply the callee's acquisition summary.
			callee := framework.CalleeOf(fir.Pkg.TypesInfo, n)
			if isDeferredExecutor(callee) {
				// time.AfterFunc-style callbacks run later on their own
				// goroutine with nothing held — arming the timer under a
				// lock creates no edge from that lock.
				savedHeld := held
				held = nil
				for _, arg := range n.Args {
					walkStmt(arg)
				}
				held = savedHeld
				return
			}
			for _, arg := range n.Args {
				walkStmt(arg)
			}
			if callee != nil {
				key := framework.FuncKey(callee)
				for _, to := range sortedKeys(closure[key]) {
					addEdge(to, n.Pos())
				}
			}
			return
		case *ast.DeferStmt:
			if kind, _ := b.lockCall(fir, n.Call); kind == -1 {
				// defer mu.Unlock(): the lock stays held to function end,
				// so skipping the pop is exactly right — everything later
				// in this function orders after it.
				return
			}
			// Other deferred calls run at exit with an unknowable held set;
			// approximate with the current one.
			walkStmt(n.Call)
			return
		case *ast.GoStmt:
			// A spawned goroutine starts with nothing held.
			savedHeld := held
			held = nil
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				walkStmt(lit.Body)
			} else {
				walkStmt(n.Call)
			}
			held = savedHeld
			return
		case *ast.FuncLit:
			// An inline closure (passed to Node.call etc.) may run under
			// the caller's current held set — walk it with that set.
			walkStmt(n.Body)
			return
		case *ast.BlockStmt:
			for _, s := range n.List {
				walkStmt(s)
			}
			return
		case *ast.IfStmt:
			walkStmt(n.Init)
			walkStmt(n.Cond)
			mark := len(held)
			walkStmt(n.Body)
			held = held[:min(mark, len(held))]
			walkStmt(n.Else)
			held = held[:min(mark, len(held))]
			return
		case *ast.ForStmt:
			walkStmt(n.Init)
			walkStmt(n.Cond)
			mark := len(held)
			walkStmt(n.Body)
			held = held[:min(mark, len(held))]
			walkStmt(n.Post)
			return
		case *ast.RangeStmt:
			walkStmt(n.X)
			mark := len(held)
			walkStmt(n.Body)
			held = held[:min(mark, len(held))]
			return
		case *ast.SwitchStmt:
			walkStmt(n.Init)
			walkStmt(n.Tag)
			mark := len(held)
			for _, cl := range n.Body.List {
				walkStmt(cl)
				held = held[:min(mark, len(held))]
			}
			return
		case *ast.TypeSwitchStmt:
			walkStmt(n.Init)
			walkStmt(n.Assign)
			mark := len(held)
			for _, cl := range n.Body.List {
				walkStmt(cl)
				held = held[:min(mark, len(held))]
			}
			return
		case *ast.SelectStmt:
			mark := len(held)
			for _, cl := range n.Body.List {
				walkStmt(cl)
				held = held[:min(mark, len(held))]
			}
			return
		case *ast.CaseClause:
			for _, e := range n.List {
				walkStmt(e)
			}
			for _, s := range n.Body {
				walkStmt(s)
			}
			return
		case *ast.CommClause:
			walkStmt(n.Comm)
			for _, s := range n.Body {
				walkStmt(s)
			}
			return
		}
		// Generic statements/expressions: visit children in source order,
		// but do not descend past nested declarations.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			switch c.(type) {
			case *ast.CallExpr, *ast.DeferStmt, *ast.GoStmt, *ast.FuncLit,
				*ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
				*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				walkStmt(c)
				return false
			}
			return true
		})
	}
	walkStmt(body)
}

// reportCycles finds cycles in the class edge graph and reports each once,
// at the edge with the smallest position, spelling out the full cycle with
// every participating acquisition site.
func (b *builder) reportCycles() {
	adj := map[string][]string{}
	for k := range b.edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for from := range adj {
		sort.Strings(adj[from])
	}

	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	reported := map[string]bool{} // canonical cycle signature -> seen
	var stack []string
	onStack := map[string]bool{}
	var dfs func(n string)
	dfs = func(n string) {
		stack = append(stack, n)
		onStack[n] = true
		for _, next := range adj[n] {
			if onStack[next] {
				// Extract the cycle next -> ... -> n -> next.
				start := 0
				for i, s := range stack {
					if s == next {
						start = i
						break
					}
				}
				cycle := append([]string(nil), stack[start:]...)
				b.reportCycle(cycle, reported)
				continue
			}
			dfs(next)
		}
		stack = stack[:len(stack)-1]
		onStack[n] = false
	}
	for _, n := range nodes {
		dfs(n)
	}
}

func (b *builder) reportCycle(cycle []string, reported map[string]bool) {
	// Canonicalize: rotate so the smallest class leads.
	minI := 0
	for i, c := range cycle {
		if c < cycle[minI] {
			minI = i
		}
	}
	rot := append(append([]string(nil), cycle[minI:]...), cycle[:minI]...)
	sig := strings.Join(rot, "->")
	if reported[sig] {
		return
	}
	reported[sig] = true

	// Gather the constituent edges in cycle order.
	var parts []string
	var at token.Pos
	escaped := false
	for i := range rot {
		from, to := rot[i], rot[(i+1)%len(rot)]
		e := b.edges[[2]string{from, to}]
		if at == token.NoPos || e.pos < at {
			at = e.pos
		}
		if b.mp.Directive(e.pos, "//simlint:lockorderok") {
			escaped = true
		}
		parts = append(parts, fmt.Sprintf("%s->%s at %s", framework.ShortKey(from), framework.ShortKey(to), b.mp.Fset.Position(e.pos)))
	}
	if escaped {
		return
	}
	b.mp.Reportf(at, "lock-order cycle (potential deadlock): %s; break the cycle or annotate the reviewed edge //simlint:lockorderok <why>",
		strings.Join(parts, "; "))
}

// isDeferredExecutor recognizes stdlib calls whose function argument runs
// later on a different goroutine with an empty lock set: arming them under
// a lock is not the same as calling under a lock.
func isDeferredExecutor(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	return callee.Pkg().Path() == "time" && callee.Name() == "AfterFunc"
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
