package framework

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// demoAnalyzer reports every function whose name starts with "Bad" — just
// enough behavior to drive the Main exit-code and output contracts.
func demoAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "demo",
		Doc:  "report functions named Bad*",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Bad") {
						pass.Reportf(fd.Pos(), "bad function %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

// TestMainExitCodes pins the driver's contract: 0 clean, 1 findings, 2
// usage errors — the semantics make lint and the CI canary rely on.
func TestMainExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
		out  string // required output substring ("" = don't care)
	}{
		{"findings", []string{"./testdata/src/demo"}, 1, "bad function BadThing"},
		{"findings-count", []string{"./testdata/src/demo"}, 1, "1 finding(s)"},
		{"clean", []string{"./testdata/src/clean"}, 0, ""},
		{"run-filter-hit", []string{"-run", "demo", "./testdata/src/demo"}, 1, "bad function"},
		{"no-patterns", []string{}, 2, "usage:"},
		{"unknown-analyzer", []string{"-run", "nosuch", "./testdata/src/demo"}, 2, "unknown analyzer"},
		{"bad-flag", []string{"-definitely-not-a-flag"}, 2, ""},
		{"list", []string{"-list"}, 0, "demo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			exit := Main(&buf, tc.args, []*Analyzer{demoAnalyzer()})
			if exit != tc.exit {
				t.Fatalf("exit = %d, want %d (output: %q)", exit, tc.exit, buf.String())
			}
			if tc.out != "" && !strings.Contains(buf.String(), tc.out) {
				t.Fatalf("output %q does not contain %q", buf.String(), tc.out)
			}
		})
	}
}

// TestMainJSON pins the -json NDJSON shape: one object per finding with
// file/line/col/analyzer/message, nothing else on the stream, and the same
// exit-code semantics as text mode.
func TestMainJSON(t *testing.T) {
	var buf bytes.Buffer
	exit := Main(&buf, []string{"-json", "./testdata/src/demo"}, []*Analyzer{demoAnalyzer()})
	if exit != 1 {
		t.Fatalf("exit = %d, want 1 (output: %q)", exit, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly 1 NDJSON line, got %d: %q", len(lines), buf.String())
	}
	var f JSONFinding
	if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
		t.Fatalf("line is not valid JSON: %v (%q)", err, lines[0])
	}
	if filepath.Base(f.File) != "demo.go" {
		t.Errorf("file = %q, want .../demo.go", f.File)
	}
	if f.Line <= 0 || f.Col <= 0 {
		t.Errorf("line/col = %d/%d, want positive", f.Line, f.Col)
	}
	if f.Analyzer != "demo" {
		t.Errorf("analyzer = %q, want demo", f.Analyzer)
	}
	if !strings.Contains(f.Message, "bad function BadThing") {
		t.Errorf("message = %q, want bad function BadThing", f.Message)
	}

	buf.Reset()
	if exit := Main(&buf, []string{"-json", "./testdata/src/clean"}, []*Analyzer{demoAnalyzer()}); exit != 0 {
		t.Fatalf("clean -json exit = %d, want 0", exit)
	}
	if buf.Len() != 0 {
		t.Fatalf("clean -json output = %q, want empty stream", buf.String())
	}
}

// TestPropagate pins the worklist fixpoint the module analyzers build on:
// facts flow callee -> caller transitively and nowhere else.
func TestPropagate(t *testing.T) {
	m := &ModuleIR{Callers: map[string][]string{
		"pkg.leaf":   {"pkg.mid"},
		"pkg.mid":    {"pkg.top", "pkg.side"},
		"pkg.other":  {"pkg.unrelated"},
		"pkg.cycleA": {"pkg.cycleB"},
		"pkg.cycleB": {"pkg.cycleA"},
	}}
	got := m.Propagate(map[string]bool{"pkg.leaf": true, "pkg.cycleA": true})
	for _, want := range []string{"pkg.leaf", "pkg.mid", "pkg.top", "pkg.side", "pkg.cycleA", "pkg.cycleB"} {
		if !got[want] {
			t.Errorf("fact missing on %s", want)
		}
	}
	for _, not := range []string{"pkg.other", "pkg.unrelated"} {
		if got[not] {
			t.Errorf("fact leaked to %s", not)
		}
	}
}
