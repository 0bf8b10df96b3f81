package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTree lays down a tiny annotated source tree and a bench snapshot,
// returning their paths.
func writeTree(t *testing.T, snapshot string) (src, snap string) {
	t.Helper()
	dir := t.TempDir()
	src = filepath.Join(dir, "src")
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	code := `package hot

//simlint:noalloc bench=BenchmarkHot.*
func hotPath() {}
`
	if err := os.WriteFile(filepath.Join(src, "hot.go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	snap = filepath.Join(dir, "bench.json")
	if err := os.WriteFile(snap, []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	return src, snap
}

func TestCheckNoallocClean(t *testing.T) {
	src, snap := writeTree(t, `{"BenchmarkHotLoop": {"allocs/op": 0, "ns/op": 12}}`)
	if code := runCheckNoalloc(src, snap); code != 0 {
		t.Fatalf("clean snapshot: exit %d, want 0", code)
	}
}

func TestCheckNoallocViolation(t *testing.T) {
	src, snap := writeTree(t, `{"BenchmarkHotLoop": {"allocs/op": 3, "ns/op": 12}}`)
	if code := runCheckNoalloc(src, snap); code != 1 {
		t.Fatalf("allocating snapshot: exit %d, want 1", code)
	}
}

func TestCheckNoallocMissingMetric(t *testing.T) {
	src, snap := writeTree(t, `{"BenchmarkHotLoop": {"ns/op": 12}}`)
	if code := runCheckNoalloc(src, snap); code != 1 {
		t.Fatalf("missing allocs/op: exit %d, want 1", code)
	}
}

func TestCheckNoallocDrift(t *testing.T) {
	// No benchmark matches the annotation: the bench suite drifted.
	src, snap := writeTree(t, `{"BenchmarkSomethingElse": {"allocs/op": 0}}`)
	if code := runCheckNoalloc(src, snap); code != 1 {
		t.Fatalf("drifted snapshot: exit %d, want 1", code)
	}
}

// writeSnap writes one snapshot JSON file into a temp dir.
func writeSnap(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiffAllocsClean(t *testing.T) {
	// ns/op differs (machine-dependent) but allocs/op matches: clean.
	base := writeSnap(t, "base.json", `{"BenchmarkA": {"allocs/op": 0, "ns/op": 10}, "BenchmarkB": {"allocs/op": 2, "ns/op": 7}}`)
	fresh := writeSnap(t, "fresh.json", `{"BenchmarkA": {"allocs/op": 0, "ns/op": 99}, "BenchmarkB": {"allocs/op": 2, "ns/op": 1}}`)
	if code := runDiffAllocs(base, fresh); code != 0 {
		t.Fatalf("matching profiles: exit %d, want 0", code)
	}
}

func TestDiffAllocsRegression(t *testing.T) {
	base := writeSnap(t, "base.json", `{"BenchmarkA": {"allocs/op": 0}}`)
	fresh := writeSnap(t, "fresh.json", `{"BenchmarkA": {"allocs/op": 3}}`)
	if code := runDiffAllocs(base, fresh); code != 1 {
		t.Fatalf("alloc regression: exit %d, want 1", code)
	}
}

func TestDiffAllocsSetDrift(t *testing.T) {
	// A benchmark missing from either side is drift in both directions.
	base := writeSnap(t, "base.json", `{"BenchmarkA": {"allocs/op": 0}, "BenchmarkGone": {"allocs/op": 0}}`)
	fresh := writeSnap(t, "fresh.json", `{"BenchmarkA": {"allocs/op": 0}, "BenchmarkNew": {"allocs/op": 0}}`)
	if code := runDiffAllocs(base, fresh); code != 1 {
		t.Fatalf("benchmark-set drift: exit %d, want 1", code)
	}
}

func TestDiffAllocsBadFile(t *testing.T) {
	base := writeSnap(t, "base.json", `{"BenchmarkA": {"allocs/op": 0}}`)
	if code := runDiffAllocs(base, filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Fatalf("missing snapshot: exit %d, want 2", code)
	}
}

func TestTrendAppends(t *testing.T) {
	snap := writeSnap(t, "snap.json", `{"BenchmarkA": {"allocs/op": 0, "ns/op": 10}}`)
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
	if code := runTrend(hist, "abc1234", snap, 0); code != 0 {
		t.Fatalf("first append: exit %d, want 0", code)
	}
	if code := runTrend(hist, "def5678", snap, 0); code != 0 {
		t.Fatalf("second append: exit %d, want 0", code)
	}
	raw, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("history has %d lines, want 2", len(lines))
	}
	wantCommits := []string{"abc1234", "def5678"}
	for i, line := range lines {
		var e trendEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if e.Commit != wantCommits[i] {
			t.Errorf("line %d commit = %q, want %q", i, e.Commit, wantCommits[i])
		}
		if _, err := time.Parse(time.RFC3339, e.Time); err != nil {
			t.Errorf("line %d time %q not RFC 3339: %v", i, e.Time, err)
		}
		if e.Benchmarks["BenchmarkA"]["allocs/op"] != 0 {
			t.Errorf("line %d lost the benchmark payload", i)
		}
	}
}

func TestTrendBadSnapshot(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
	if code := runTrend(hist, "abc", filepath.Join(t.TempDir(), "missing.json"), 0); code != 2 {
		t.Fatalf("missing snapshot: exit %d, want 2", code)
	}
	if _, err := os.Stat(hist); !os.IsNotExist(err) {
		t.Fatal("history file created despite failed load")
	}
}

func TestTrendKeepRotates(t *testing.T) {
	snap := writeSnap(t, "snap.json", `{"BenchmarkA": {"allocs/op": 0}}`)
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
	// Seven appends with a cap of 3: only the newest three commits survive.
	for i := 0; i < 7; i++ {
		if code := runTrend(hist, fmt.Sprintf("c%d", i), snap, 3); code != 0 {
			t.Fatalf("append %d: exit %d, want 0", i, code)
		}
	}
	raw, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("rotated history has %d lines, want 3:\n%s", len(lines), raw)
	}
	for i, want := range []string{"c4", "c5", "c6"} {
		var e trendEntry
		if err := json.Unmarshal([]byte(lines[i]), &e); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.Commit != want {
			t.Errorf("line %d commit = %q, want %q", i, e.Commit, want)
		}
	}
	// No rotation leftovers.
	if _, err := os.Stat(hist + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("rotation temp file left behind")
	}
	// Under the cap nothing is dropped.
	hist2 := filepath.Join(t.TempDir(), "hist2.jsonl")
	for i := 0; i < 2; i++ {
		if code := runTrend(hist2, fmt.Sprintf("c%d", i), snap, 3); code != 0 {
			t.Fatalf("append %d: exit %d, want 0", i, code)
		}
	}
	raw2, err := os.ReadFile(hist2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(raw2)), "\n")); got != 2 {
		t.Fatalf("uncapped history has %d lines, want 2", got)
	}
}

// timingRun is -count=5 output for one benchmark that reports cycles/op and
// one that does not.
const timingRun = `goos: linux
BenchmarkStepChase-2   	    1200	    900000 ns/op	      1000 cycles/op
BenchmarkStepChase-2   	    1200	    700000 ns/op	      1000 cycles/op
BenchmarkStepChase-2   	    1200	    800000 ns/op	      1000 cycles/op
BenchmarkStepChase-2   	    1200	    600000 ns/op	      1000 cycles/op
BenchmarkStepChase-2   	    1200	   1000000 ns/op	      2000 cycles/op
BenchmarkRing-2        	 1000000	        40 ns/op
BenchmarkRing-2        	 1000000	        50 ns/op
PASS
`

func TestTimingMergesSpread(t *testing.T) {
	snap := writeSnap(t, "snap.json", `{"BenchmarkStepChase": {"allocs/op": 27, "ns/op": 5}, "BenchmarkRing": {"allocs/op": 0}, "BenchmarkOther": {"allocs/op": 0}}`)
	if code := runTiming(snap, strings.NewReader(timingRun), io.Discard); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	got, err := loadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"BenchmarkStepChase": {"allocs/op": 27, "timing.runs": 5,
			"ns/op": 800000, "ns/op.min": 600000, "ns/op.max": 1000000,
			"ns/cycle": 700, "ns/cycle.min": 500, "ns/cycle.max": 900},
		"BenchmarkRing": {"allocs/op": 0, "timing.runs": 2,
			"ns/op": 45, "ns/op.min": 40, "ns/op.max": 50},
		"BenchmarkOther": {"allocs/op": 0},
	}
	for name, w := range want {
		if fmt.Sprint(got[name]) != fmt.Sprint(w) {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	// The allocation profile is untouched, so the merged snapshot still
	// diffs clean against the one it started from.
	base := writeSnap(t, "base.json", `{"BenchmarkStepChase": {"allocs/op": 27}, "BenchmarkRing": {"allocs/op": 0}, "BenchmarkOther": {"allocs/op": 0}}`)
	if code := runDiffAllocs(base, snap); code != 0 {
		t.Fatalf("diff-allocs after timing merge: exit %d, want 0", code)
	}
}

func TestTimingUnknownBenchmark(t *testing.T) {
	snap := writeSnap(t, "snap.json", `{"BenchmarkRing": {"allocs/op": 0}}`)
	if code := runTiming(snap, strings.NewReader(timingRun), io.Discard); code != 1 {
		t.Fatalf("timed benchmark missing from the snapshot: exit %d, want 1", code)
	}
}
