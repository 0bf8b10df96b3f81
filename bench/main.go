// Command bench is the repository's end-to-end benchmark. It runs one of
// four workloads (chase, stream, sweep, fabric) for a given seed and number
// of seconds, checks every simulated result against golden digests, and
// prints each metric by name with its unit, then one JSON summary line.
// Without -workload it runs all four, one process each. With -trace 1 it
// profiles the run and prints the per-layer metrics instead of the
// end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// resultDir is where each run writes its result file and profiles, relative
// to the checkout root the benchmark runs from.
const resultDir = ".bench_build/results"

func main() {
	name := flag.String("workload", "", "chase, stream, sweep or fabric; empty runs all four, one process each")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "how long the measured repeats run")
	trace := flag.Int("trace", 0, "1 profiles the run and prints the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll())
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// A run that printed its summary line exits 0 even when an output was
	// wrong: the line's "correct" and "failed" say so. Only a run that could
	// not measure at all exits 1.
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own with the same flags.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// summary is the last line of a run's standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures w, writes the result file, and prints its metrics and
// summary line.
func run(w workload, seed uint64, seconds time.Duration, trace bool) error {
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	ref := hostRef()
	profDir := ""
	if trace {
		profDir = resultDir
	}
	o, err := measure(w, seed, seconds, profDir)
	if err != nil {
		return err
	}
	vals, err := o.values()
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		shares, err := hostShares(o.profiles)
		if err != nil {
			return err
		}
		for l, s := range shares {
			vals[l] = s
		}
		defs = perLayer
	}
	ms, err := pick(vals, defs)
	if err != nil {
		return err
	}
	for _, f := range o.Failures {
		fmt.Println("FAIL", f)
	}
	for _, d := range defs {
		fmt.Printf("%-28s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
	sum := summary{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: ms}
	if err := writeResult(w, seed, seconds, trace, ref, o, vals); err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeResult records a run with what it ran on, every raw sample and every
// metric it computed, under resultDir.
func writeResult(w workload, seed uint64, seconds time.Duration, trace bool, ref time.Duration, o *outcome, vals map[string]float64) error {
	traceFlag := 0
	if trace {
		traceFlag = 1
	}
	kips, _ := o.kips()
	rec := map[string]any{
		"commit":             commitID,
		"go":                 runtime.Version(),
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"seed":               seed,
		"seconds":            seconds.Seconds(),
		"trace":              traceFlag,
		"instr":              w.instr,
		"repeats":            len(o.reps),
		"host_ref_ms":        float64(ref.Microseconds()) / 1e3,
		"sim_kips_iqr_share": iqrShare(kips),
		"outcome":            o,
		"metrics":            vals,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(resultDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, traceFlag))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commitID is the commit the benchmark was built from, set by run.sh when
// the checkout is a git work tree.
var commitID = "unknown"

var refSink uint64

// hostRef times a fixed integer loop before the workload runs, so that host
// speed drift between runs shows in the result files.
func hostRef() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return time.Since(t0)
}
