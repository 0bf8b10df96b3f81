package framework

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
)

// RunPackages executes the analyzers over the loaded packages and returns
// every diagnostic, sorted by file position. Begin/End hooks bracket the
// run, so module-wide analyzers see a clean slate each call.
func RunPackages(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	for _, a := range analyzers {
		if a.Begin != nil {
			a.Begin()
		}
	}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	// The module IR is built once and shared by every RunModule analyzer.
	var ir *ModuleIR
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if ir == nil {
			ir = BuildModuleIR(pkgs)
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fset,
			Packages: pkgs,
			IR:       ir,
			Report:   report,
		}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	for _, a := range analyzers {
		if a.End != nil {
			name := a.Name
			a.End(func(pos token.Pos, msg string) {
				report(Diagnostic{Pos: pos, Message: msg, Analyzer: name})
			})
		}
	}

	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// Main is the multichecker entry point shared by cmd/simlint: it parses
// flags, loads the requested packages, runs the analyzers, prints
// diagnostics in the canonical file:line:col style, and returns the process
// exit code (0 clean, 1 findings, 2 usage/load failure).
func Main(w io.Writer, args []string, analyzers []*Analyzer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		runList  = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		list     = fs.Bool("list", false, "list analyzers and exit")
		typeErr  = fs.Bool("typeerrors", false, "also print soft type errors encountered while loading")
		jsonMode = fs.Bool("json", false, "emit findings as NDJSON ({file,line,col,analyzer,message} per line) for machine consumers")
	)
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: simlint [flags] packages...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(w, "  %-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintln(w, a.Name)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	selected := analyzers
	if *runList != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(n)] = true
		}
		selected = nil
		for _, a := range analyzers {
			if want[a.Name] {
				selected = append(selected, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			for n := range want {
				fmt.Fprintf(w, "simlint: unknown analyzer %q\n", n)
			}
			return 2
		}
	}

	fset := token.NewFileSet()
	pkgs, err := Load(fset, "", patterns...)
	if err != nil {
		fmt.Fprintf(w, "simlint: %v\n", err)
		return 2
	}
	if *typeErr {
		for _, pkg := range pkgs {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(w, "simlint: typecheck %s: %v\n", pkg.PkgPath, e)
			}
		}
	}

	diags, err := RunPackages(fset, pkgs, selected)
	if err != nil {
		fmt.Fprintf(w, "simlint: %v\n", err)
		return 2
	}
	if *jsonMode {
		// NDJSON: one object per finding, nothing else on the stream, so
		// CI can pipe straight into jq / GitHub annotation emitters. The
		// exit code still carries the verdict (0 clean, 1 findings).
		enc := json.NewEncoder(w)
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if err := enc.Encode(JSONFinding{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				return 2
			}
		}
		if len(diags) > 0 {
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(w, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// JSONFinding is the -json wire shape of one diagnostic.
type JSONFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Exit is a tiny indirection over os.Exit so cmd/simlint stays testable.
var Exit = os.Exit
