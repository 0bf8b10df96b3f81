// Command benchjson converts `go test -bench` output on stdin into a JSON
// object on stdout, keyed by benchmark name with one entry per reported
// metric (ns/op, B/op, allocs/op, and any custom ReportMetric units).
//
//	go test -run xxx -bench . -benchtime=1x -count=1 ./internal/sim/ | benchjson > BENCH_sim.json
//
// With -check-noalloc it instead audits an existing snapshot against the
// //simlint:noalloc bench=RE annotations in the source tree: every
// annotated hot path must have at least one matching benchmark in the
// snapshot, and every matching benchmark must report 0 allocs/op. This
// closes the loop between the static annotation (enforced by cmd/simlint)
// and the measured truth:
//
//	benchjson -check-noalloc BENCH_sim.json
//
// With -diff-allocs it compares the allocation profile of two snapshots
// (committed baseline vs freshly regenerated): every benchmark present in
// either must be present in both with identical allocs/op. Timing metrics
// are machine-dependent and deliberately ignored — allocation counts are
// the deterministic contract CI can diff across runners:
//
//	benchjson -diff-allocs BENCH_sim.json /tmp/BENCH_new.json
//
// With -trend it appends one JSON line per invocation to a history file —
// the snapshot keyed by commit (-commit, typically `git rev-parse --short
// HEAD` from the Makefile) and a UTC timestamp — turning repeated `make
// bench` runs into an append-only time series CI uploads as an artifact:
//
//	benchjson -trend BENCH_history.jsonl -commit abc1234 BENCH_sim.json
//
// -trend-keep N caps the history: after appending, the file is rotated
// down to its newest N entries (atomic temp-file + rename), so the series
// never grows without bound.
//
// With -timing it reads the output of a repeated timing run (-count=N at a
// time-based -benchtime) on stdin and records, in the snapshot's entry for
// each benchmark, the median, min and max of ns/op over the N runs
// ("ns/op", which the median replaces, "ns/op.min", "ns/op.max",
// "timing.runs") and, for a benchmark that reports cycles/op, of ns per
// simulated cycle ("ns/cycle", "ns/cycle.min", "ns/cycle.max"). Every timed
// benchmark must already have an entry, so the snapshot's benchmark set
// stays the allocation run's:
//
//	go test -run xxx -bench 'BenchmarkStep' -benchtime=1s -count=5 ./internal/sim/ | benchjson -timing BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis/hotalloc"
)

func main() {
	checkNoalloc := flag.Bool("check-noalloc", false,
		"audit a bench JSON snapshot against //simlint:noalloc bench= annotations and exit non-zero on any violation")
	diffAllocs := flag.Bool("diff-allocs", false,
		"compare allocs/op between two snapshots (baseline, fresh) and exit non-zero on any difference")
	src := flag.String("src", ".",
		"source tree to scan for annotations (with -check-noalloc)")
	trend := flag.String("trend", "",
		"append the snapshot argument as one JSON line to this history file (BENCH_history.jsonl)")
	commit := flag.String("commit", "",
		"commit hash recorded in the -trend entry (empty = \"unknown\")")
	trendKeep := flag.Int("trend-keep", 0,
		"rotate the -trend history down to its last N entries after appending (0 = unbounded)")
	timing := flag.String("timing", "",
		"merge the median/min/max timing of the repeated bench output on stdin into this snapshot file")
	flag.Parse()

	if *timing != "" {
		os.Exit(runTiming(*timing, os.Stdin, os.Stderr))
	}

	if *checkNoalloc {
		file := flag.Arg(0)
		if file == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -check-noalloc needs a snapshot file argument (e.g. BENCH_sim.json)")
			os.Exit(2)
		}
		os.Exit(runCheckNoalloc(*src, file))
	}
	if *diffAllocs {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff-allocs needs two snapshot arguments: baseline fresh")
			os.Exit(2)
		}
		os.Exit(runDiffAllocs(flag.Arg(0), flag.Arg(1)))
	}
	if *trend != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -trend needs one snapshot argument (e.g. BENCH_sim.json)")
			os.Exit(2)
		}
		os.Exit(runTrend(*trend, *commit, flag.Arg(0), *trendKeep))
	}
	convert()
}

// trendEntry is one line of the append-only bench history.
type trendEntry struct {
	Time       string                        `json:"time"` // RFC 3339 UTC
	Commit     string                        `json:"commit"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// runTrend appends the snapshot as one JSON line to the history file, then
// rotates the file down to its newest `keep` entries when a cap is set.
// Returns the process exit code.
func runTrend(histFile, commit, snapFile string, keep int) int {
	snap, err := loadSnapshot(snapFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if commit == "" {
		commit = "unknown"
	}
	line, err := json.Marshal(trendEntry{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit,
		Benchmarks: snap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	f, err := os.OpenFile(histFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if keep > 0 {
		dropped, err := rotateTrend(histFile, keep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 2
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: rotated %s: dropped %d oldest entries (keeping %d)\n",
				histFile, dropped, keep)
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended %d benchmark(s) at %s to %s\n", len(snap), commit, histFile)
	return 0
}

// rotateTrend truncates the history to its last `keep` lines, atomically
// (write a sibling temp file, then rename over) so a crash mid-rotation
// never loses the history. Returns how many lines were dropped.
func rotateTrend(histFile string, keep int) (int, error) {
	raw, err := os.ReadFile(histFile)
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) <= keep {
		return 0, nil
	}
	kept := lines[len(lines)-keep:]
	tmp := histFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, histFile); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return 0, err
	}
	return len(lines) - keep, nil
}

// loadSnapshot reads one benchjson output file.
func loadSnapshot(file string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var snap map[string]map[string]float64
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("parse %s: %v", file, err)
	}
	return snap, nil
}

// runDiffAllocs returns the process exit code: 0 when both snapshots cover
// the same benchmarks with identical allocs/op, 1 on any allocation drift or
// benchmark-set drift, 2 on operational errors.
func runDiffAllocs(baseFile, freshFile string) int {
	base, err := loadSnapshot(baseFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	fresh, err := loadSnapshot(freshFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	bad := 0
	for name, bm := range base {
		fm, ok := fresh[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s present in baseline %s but missing from %s (bench removed without regenerating the baseline?)\n",
				name, baseFile, freshFile)
			bad++
			continue
		}
		if ba, fa := bm["allocs/op"], fm["allocs/op"]; ba != fa {
			fmt.Fprintf(os.Stderr, "benchjson: %s allocs/op drifted: baseline %s has %g, fresh %s has %g\n",
				name, baseFile, ba, freshFile, fa)
			bad++
		}
	}
	for name := range fresh {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s present in fresh %s but missing from baseline %s (new bench: regenerate and commit the baseline)\n",
				name, freshFile, baseFile)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d allocation diff(s) vs baseline\n", bad)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) match the baseline allocation profile\n", len(base))
	return 0
}

// runCheckNoalloc returns the process exit code: 0 when every annotated
// path is measured at 0 allocs/op, 1 on any violation or drift.
func runCheckNoalloc(src, file string) int {
	rules, err := hotalloc.ScanBenchRules(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if len(rules) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no %s bench= annotations under %s: nothing to check\n", hotalloc.Directive, src)
		return 2
	}
	snap, err := loadSnapshot(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}

	bad := 0
	for _, rule := range rules {
		matched := 0
		for name, metrics := range snap {
			if !rule.Pattern.MatchString(name) {
				continue
			}
			matched++
			allocs, ok := metrics["allocs/op"]
			switch {
			case !ok:
				fmt.Fprintf(os.Stderr, "benchjson: %s: %s matches noalloc path %s (%s) but reports no allocs/op metric\n",
					file, name, rule.Func, rule.Pos)
				bad++
			case allocs > 0:
				fmt.Fprintf(os.Stderr, "benchjson: %s: %s reports %g allocs/op but %s is annotated %s (%s)\n",
					file, name, allocs, rule.Func, hotalloc.Directive, rule.Pos)
				bad++
			}
		}
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: no benchmark in %s matches bench=%s on %s (%s): annotation drifted from the bench suite\n",
				file, rule.Pattern, rule.Func, rule.Pos)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d noalloc violation(s)\n", bad)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d noalloc annotation(s) verified against %s\n", len(rules), file)
	return 0
}

// parseBench reads `go test -bench` output, echoing every line to echo so
// the run stays readable, and returns each benchmark's result lines in
// order: one per -count repetition.
func parseBench(in io.Reader, echo io.Writer) (map[string][]map[string]float64, error) {
	out := map[string][]map[string]float64{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// fields: Name N  v1 unit1  v2 unit2 ...
		name := strings.SplitN(fields[0], "-", 2)[0] // strip -GOMAXPROCS suffix
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m := map[string]float64{"iterations": iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			m[fields[i+1]] = v
		}
		out[name] = append(out[name], m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		// An upstream failure (build error, -run filter eating everything)
		// must not silently produce an empty baseline file.
		return nil, fmt.Errorf("no benchmark result lines on stdin (expected `go test -bench` output)")
	}
	return out, nil
}

func convert() {
	runs, err := parseBench(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out := map[string]map[string]float64{}
	for name, rs := range runs {
		out[name] = rs[len(rs)-1]
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runTiming merges the spread of a repeated timing run read from in into
// the snapshot file. Returns the process exit code: 1 when a timed
// benchmark has no entry in the snapshot, 2 on operational errors.
func runTiming(snapFile string, in io.Reader, echo io.Writer) int {
	snap, err := loadSnapshot(snapFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	runs, err := parseBench(in, echo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	for name, rs := range runs {
		entry, ok := snap[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: timed %s has no entry in %s (run the allocation snapshot first)\n", name, snapFile)
			return 1
		}
		var nsOp, nsCycle []float64
		for _, r := range rs {
			ns, ok := r["ns/op"]
			if !ok {
				continue
			}
			nsOp = append(nsOp, ns)
			if cyc := r["cycles/op"]; cyc > 0 {
				nsCycle = append(nsCycle, ns/cyc)
			}
		}
		entry["timing.runs"] = float64(len(nsOp))
		putSpread(entry, "ns/op", nsOp)
		putSpread(entry, "ns/cycle", nsCycle)
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if err := os.WriteFile(snapFile, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "benchjson: merged the timing of %d benchmark(s) into %s\n", len(runs), snapFile)
	return 0
}

// putSpread records the median of vs under key and its min and max under
// key+".min" and key+".max" (nothing when vs is empty). An even count takes
// the mean of the two middle values.
func putSpread(entry map[string]float64, key string, vs []float64) {
	if len(vs) == 0 {
		return
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	med := vs[mid]
	if len(vs)%2 == 0 {
		med = (vs[mid-1] + vs[mid]) / 2
	}
	entry[key] = med
	entry[key+".min"] = vs[0]
	entry[key+".max"] = vs[len(vs)-1]
}
