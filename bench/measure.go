package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"
)

// setupSamples is how many extra set-ups a run times before measuring, so
// that setup_s is a median of many samples even when repeats are few.
const setupSamples = 200

// repeatRecord is one repeat's raw samples in the result file.
type repeatRecord struct {
	Profiled bool    `json:"profiled,omitempty"`
	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"`
	SimKIPS  float64 `json:"sim_kips"`
	Digest   string  `json:"digest,omitempty"`
}

// outcome is everything one run measured, raw samples included.
type outcome struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	SimSeed   uint64         `json:"sim_seed"`
	Golden    string         `json:"golden,omitempty"`
	SetupS    []float64      `json:"setup_s"` // the extra set-ups
	Repeats   []repeatRecord `json:"repeats"`
	JobS      []float64      `json:"job_s"`    // every cold job
	CachedS   []float64      `json:"cached_s"` // every cache-hit submit
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`

	ref      string // the digest every repeat must match
	reps     []*repeat
	sample   *repeat // the first correct repeat, results kept
	profiles []string
}

// measure runs w for seed, folded into the simulation seeds by simSeed: the
// extra set-ups, which also warm the heap and the code, then repeats while
// the next one, judged by the last, would end less than half a repeat after
// seconds. With profDir set it is the traced run: every second repeat runs
// under the CPU profiler, writing its profile there, and at least one repeat
// runs on each side.
//
// Each set-up starts from a collected heap, and each repeat from a heap
// whose free memory went back to the OS, as in a fresh process: garbage one
// repeat leaves neither slows the next nor raises its peak RSS.
func measure(w workload, seed uint64, seconds time.Duration, profDir string) (*outcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	s := simSeed(seed)
	o := &outcome{Workload: w.name, Seed: seed, SimSeed: s, Golden: golden[w.name][strconv.FormatUint(s, 10)]}
	o.ref = o.Golden
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		_, stop, err := w.open(w, s)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		o.SetupS = append(o.SetupS, time.Since(t0).Seconds())
		stop()
	}
	minRepeats := 1
	if profDir != "" {
		minRepeats = 2
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i < minRepeats || time.Since(start)+last/2 < seconds; i++ {
		prof := ""
		if profDir != "" && i%2 == 1 {
			prof = filepath.Join(profDir, fmt.Sprintf("%s-seed%d-%d.pprof", w.name, seed, i))
		}
		t0 := time.Now()
		if err := o.repeat(w, s, prof); err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}
	return o, nil
}

// repeat sets w up for simulation seed s, runs one pass (under the CPU
// profiler when prof names a file), checks the results and tears w down.
// Results are checked against the golden digest when there is one for s,
// else against the run's first repeat.
func (o *outcome) repeat(w workload, s uint64, prof string) error {
	debug.FreeOSMemory()
	t0 := time.Now()
	pass, stop, err := w.open(w, s)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer stop()
	rec := repeatRecord{Profiled: prof != "", SetupS: time.Since(t0).Seconds()}
	var f *os.File
	if prof != "" {
		if f, err = os.Create(prof); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
	}
	r := pass()
	r.profiled = prof != ""
	if f != nil {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		o.profiles = append(o.profiles, prof)
	}

	label := fmt.Sprintf("%s seed %d repeat %d", w.name, o.Seed, len(o.Repeats))
	o.Attempted += r.attempted
	o.Failed += r.failed
	for _, e := range r.errs {
		o.Failures = append(o.Failures, label+": "+e)
	}
	if r.failed == 0 {
		rec.Digest = digest(r.results)
		if o.ref == "" {
			o.ref = rec.Digest
		}
		if rec.Digest != o.ref {
			o.Failed++
			o.Failures = append(o.Failures, fmt.Sprintf("%s: digest %s, want %s", label, rec.Digest, o.ref))
		}
	}
	rec.WallS = r.wall.Seconds()
	if rec.WallS > 0 {
		rec.SimKIPS = float64(r.instrs) / rec.WallS / 1e3
	}
	for _, res := range r.results {
		r.cycles += float64(res.Cycles)
	}
	o.Repeats = append(o.Repeats, rec)
	// Every correct repeat simulated the same inputs, so one keeps its
	// results for the simulated counts; dropping the rest keeps the peak RSS
	// independent of the number of repeats.
	if o.sample == nil && r.failed == 0 {
		o.sample = r
	} else {
		r.results = nil
	}
	o.reps = append(o.reps, r)
	o.JobS = appendSeconds(o.JobS, r.jobs)
	o.CachedS = appendSeconds(o.CachedS, r.cached)
	return nil
}

func appendSeconds(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, d.Seconds())
	}
	return dst
}
