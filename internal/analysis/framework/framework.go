// Package framework is a dependency-free miniature of the
// golang.org/x/tools/go/analysis API: named analyzers run over type-checked
// packages and report position-tagged diagnostics. The repo's go.mod is
// deliberately empty (the simulator is stdlib-only), so rather than vendor
// x/tools the lint suite re-implements the thin slice it needs: a package
// loader built on `go list -export` plus the gc export-data importer, a
// per-package Pass, and an analysistest-style fixture harness
// (framework/analysistest). Analyzer Run signatures are kept shape-compatible
// with x/tools so the suite could migrate to the real framework if the
// module ever grows dependencies.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. Unlike x/tools there is no Requires
// graph or fact serialization: analyzers run independently per package, and
// module-wide invariants use either Begin/End hooks that bracket a whole
// driver run or — for the dataflow analyzers — a RunModule hook that
// receives the shared SSA-lite IR (ir.go) of every loaded package at once.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description (first line = summary).
	Doc string
	// Run, if non-nil, is invoked once per loaded package.
	Run func(*Pass) error
	// RunModule, if non-nil, is invoked once per driver run with every
	// loaded package and the module IR — the cross-package dataflow entry
	// point (call-graph fact propagation, module-wide def-use).
	RunModule func(*ModulePass) error
	// Begin, if non-nil, is invoked once before any package. Analyzers
	// with module-wide state reset it here so repeated driver runs (and
	// tests) start clean.
	Begin func()
	// End, if non-nil, is invoked once after every package has been
	// analyzed; report emits module-wide diagnostics. Positions are
	// interpreted against the shared FileSet of the run.
	End func(report func(token.Pos, string))
}

// Pass carries one package's load results to an analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	lines *LineComments // built on first Directive query
}

// Diagnostic is one finding, positioned in the run's shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// ModulePass carries the whole run's load results and shared IR to an
// analyzer's RunModule.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package
	IR       *ModuleIR
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	lines *LineComments // module-wide, built on first Directive query
}

// Reportf formats and reports a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Directive reports whether a directive comment appears on pos's line or
// the line above, anywhere in the loaded module.
func (p *ModulePass) Directive(pos token.Pos, directive string) bool {
	_, present := p.DirectiveReason(pos, directive)
	return present
}

// DirectiveReason returns the trailing free text of a directive on pos's
// line (or the line above), and whether the directive is present at all.
// Analyzers that demand a justification comment (e.g. //simlint:leakok
// <why>) use the second return to distinguish "absent" from "bare". The
// module-wide comment index is built on first use.
func (p *ModulePass) DirectiveReason(pos token.Pos, directive string) (reason string, present bool) {
	if p.lines == nil {
		var files []*ast.File
		for _, pkg := range p.Packages {
			files = append(files, pkg.Syntax...)
		}
		p.lines = indexComments(p.Fset, files)
	}
	return p.lines.find(pos, directive)
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// LineComments indexes comments by file and line so analyzers can resolve
// //simlint: suppression and annotation directives.
type LineComments struct {
	fset   *token.FileSet
	byLine map[string]map[int][]*ast.Comment
}

func indexComments(fset *token.FileSet, files []*ast.File) *LineComments {
	lc := &LineComments{fset: fset, byLine: map[string]map[int][]*ast.Comment{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				m := lc.byLine[pos.Filename]
				if m == nil {
					m = map[int][]*ast.Comment{}
					lc.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], c)
			}
		}
	}
	return lc
}

// find looks for directive on pos's line or the line above it — the two
// placements gofmt preserves for line-scoped suppressions — and returns its
// trailing free text.
func (lc *LineComments) find(pos token.Pos, directive string) (reason string, present bool) {
	at := lc.fset.Position(pos)
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, c := range lc.byLine[at.Filename][line] {
			text := strings.TrimSpace(c.Text)
			if text == directive {
				return "", true
			}
			if strings.HasPrefix(text, directive+" ") {
				return strings.TrimSpace(text[len(directive):]), true
			}
		}
	}
	return "", false
}

// Directive reports whether the given directive comment (e.g.
// "//simlint:allocok") appears on pos's line or the line above it.
func (p *Pass) Directive(pos token.Pos, directive string) bool {
	if p.lines == nil {
		p.lines = indexComments(p.Fset, p.Files)
	}
	_, present := p.lines.find(pos, directive)
	return present
}

// ImportedPath resolves a call like pkgname.Func(...) to the imported
// package path and function name, or ok=false when fun is not a selector on
// a package name.
func (p *Pass) ImportedPath(fun ast.Expr) (path, name string, ok bool) {
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := p.TypesInfo.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
