package figures

import (
	"math"
	"strings"
	"testing"
)

// tinyOpts keeps figure tests fast.
func tinyOpts() Options {
	o := DefaultOptions()
	o.InstrPerCore = 3000
	o.InstrPerCore8 = 2000
	return o
}

// TestGmean: the rows labelled gmean average speedup ratios geometrically —
// a 2x slowdown and a 2x speedup average to 1, not to the arithmetic 1.25.
func TestGmean(t *testing.T) {
	vs := []float64{0.5, 2}
	if got := gmean(vs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("gmean(%v) = %v, want 1", vs, got)
	}
	if got := mean(vs); got != 1.25 {
		t.Fatalf("mean(%v) = %v, want 1.25", vs, got)
	}
	if got := gmean([]float64{1, 1.21}); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("gmean({1, 1.21}) = %v, want 1.1", got)
	}
	for _, vs := range [][]float64{nil, {1.5, 0}} {
		if got := gmean(vs); got != 0 {
			t.Fatalf("gmean(%v) = %v, want 0", vs, got)
		}
	}
}

// TestWorkloadsMatchTable3: h10, the list every H1–H10 figure runs, is the
// paper's Table 3: ten four-benchmark mixes, each benchmark once per mix.
func TestWorkloadsMatchTable3(t *testing.T) {
	ws := h10()
	if len(ws) != 10 {
		t.Fatalf("want 10 workloads, got %d", len(ws))
	}
	// Spot-check against Table 3.
	if ws[0].name != "H1" || ws[3].bench[0] != "mcf" {
		t.Errorf("workload table wrong: %+v", ws[:4])
	}
	for _, w := range ws {
		if len(w.bench) != 4 {
			t.Errorf("%s has %d benchmarks", w.name, len(w.bench))
		}
		seen := map[string]bool{}
		for _, b := range w.bench {
			if seen[b] {
				t.Errorf("%s repeats %s (Table 3: each benchmark once per mix)", w.name, b)
			}
			seen[b] = true
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "FigX", Title: "demo", Columns: []string{"a", "b"},
		Rows:  []Row{{Label: "w1", Values: []float64{1, 2}}},
		Notes: "n",
	}
	s := tab.String()
	if !strings.Contains(s, "FigX") || !strings.Contains(s, "w1") || !strings.Contains(s, "note:") {
		t.Errorf("ASCII rendering incomplete:\n%s", s)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| w1 |") || !strings.Contains(md, "### FigX") {
		t.Errorf("markdown rendering incomplete:\n%s", md)
	}
}

func TestFig6NoSimulation(t *testing.T) {
	s := NewSuite(tinyOpts())
	tab, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("want 8 rows, got %d", len(tab.Rows))
	}
	// mcf and omnetpp chase; their chains must be in the paper's 4-12 band.
	for _, r := range tab.Rows {
		if r.Label == "mcf" || r.Label == "omnetpp" {
			if r.Values[0] < 4 || r.Values[0] > 12 {
				t.Errorf("%s avg chain ops %.1f outside [4,12]", r.Label, r.Values[0])
			}
		}
		if r.Label == "lbm" || r.Label == "libquantum" {
			if r.Values[0] != 0 {
				t.Errorf("%s should have no chains, got %.1f", r.Label, r.Values[0])
			}
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(tinyOpts())
	sp := spec{name: "t", bench: []string{"libquantum", "libquantum", "libquantum", "libquantum"}, pf: "none"}
	r1, err := s.run(sp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical specs must be memoized")
	}
}

func TestFig15Through22Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run figure test")
	}
	s := NewSuite(tinyOpts())
	f15, err := s.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(f15.Rows) != 11 { // H1-H10 + mean
		t.Errorf("Fig15 rows = %d", len(f15.Rows))
	}
	f18, err := s.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	// EMC latency saving should be positive on average (the paper's Fig 18).
	meanRow := f18.Rows[len(f18.Rows)-1]
	if meanRow.Values[2] <= 0 {
		t.Errorf("Fig18 mean saving %.1f%%, want > 0", meanRow.Values[2])
	}
	// The mean row averages the latency columns too (no placeholder zeros).
	for col, name := range []string{"core", "emc"} {
		var vs []float64
		for _, r := range f18.Rows[:len(f18.Rows)-1] {
			vs = append(vs, r.Values[col])
		}
		if got := meanRow.Values[col]; got <= 0 || got != mean(vs) {
			t.Errorf("Fig18 mean %s latency = %v, want the nonzero mean %v", name, got, mean(vs))
		}
	}
	f22, err := s.Fig22()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f22.Rows {
		if r.Values[0] > 16 {
			t.Errorf("%s: chains longer than the 16-uop cap: %.1f", r.Label, r.Values[0])
		}
	}
}

func TestExtRunaheadAndWS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run figure test")
	}
	s := NewSuite(tinyOpts())
	ext, err := s.ExtRunahead()
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Rows) != 3 {
		t.Fatalf("ExtRA rows = %d", len(ext.Rows))
	}
	for _, r := range ext.Rows {
		if r.Label == "4xmilc" && r.Values[0] < 1.0 {
			t.Errorf("runahead should help milc, got %.3f", r.Values[0])
		}
	}
	ws, err := s.WeightedSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ws.Rows[:len(ws.Rows)-1] {
		if r.Values[0] <= 0 || r.Values[0] > 4 {
			t.Errorf("%s: baseline WS %.3f out of (0,4]", r.Label, r.Values[0])
		}
	}
	// The gmean row covers the WS columns too (no placeholder zeros).
	gmeanRow := ws.Rows[len(ws.Rows)-1]
	for col, name := range []string{"baseline", "emc"} {
		var vs []float64
		for _, r := range ws.Rows[:len(ws.Rows)-1] {
			vs = append(vs, r.Values[col])
		}
		if got := gmeanRow.Values[col]; got <= 0 || got != gmean(vs) {
			t.Errorf("WS gmean %s = %v, want the nonzero gmean %v", name, got, gmean(vs))
		}
	}
}
