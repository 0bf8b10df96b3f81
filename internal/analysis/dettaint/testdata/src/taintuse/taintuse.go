// Package taintuse is the dettaint fixture's sink-site package: every way
// a nondeterministic value can reach a result-affecting sink, plus the
// clean counterparts.
package taintuse

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/analysis/dettaint/testdata/src/internal/figures"
	"repro/internal/analysis/dettaint/testdata/src/internal/service"
	sim "repro/internal/analysis/dettaint/testdata/src/internal/sim"
	"repro/internal/analysis/dettaint/testdata/src/taintsrc"
)

// Finish writes the wall clock straight into a Result field.
func Finish(r *sim.Result, start time.Time) {
	r.Wall = time.Since(start).Seconds() // want `sim\.Result\.Wall receives a nondeterministic value`
}

// Build taints a Result composite literal.
func Build(c float64) sim.Result {
	return sim.Result{Cycles: c, Wall: float64(time.Now().UnixNano())} // want `sim\.Result\.Wall receives a nondeterministic value`
}

// Stamp inherits taint across a package boundary through a return value.
func Stamp(r *sim.Result) {
	r.Wall = taintsrc.Stamp() // want `sim\.Result\.Wall receives a nondeterministic value`
}

// Clean uses the cross-package constant: quiet.
func Clean(r *sim.Result) {
	r.Wall = taintsrc.Fixed()
}

// FirstReply binds a value in a multi-way select: which case wins is
// scheduler-dependent, so the value is interleaving-tainted.
func FirstReply(r *sim.Result, a, b chan float64) {
	var v float64
	select {
	case v = <-a:
	case v = <-b:
	}
	r.Cycles = v // want `sim\.Result\.Cycles receives a nondeterministic value`
}

// Record encodes map keys in iteration order into the durable frame.
func Record(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return service.EncodeRecord(keys) // want `durable record \(service\.EncodeRecord\) receives a nondeterministic value`
}

// RecordSorted is the sanctioned fix: quiet.
func RecordSorted(m map[string]int) []byte {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return service.EncodeRecord(keys)
}

// Plot feeds order-tainted rows to a figure table.
func Plot(m map[string]float64) {
	var rows []string
	for k := range m {
		rows = append(rows, k)
	}
	figures.Table(rows) // want `figure/report table .*Table.* receives a nondeterministic value`
}

// Seed forks the content address: Config fields are Fingerprint inputs.
func Seed(cfg *sim.Config) {
	cfg.Seed = time.Now().UnixNano() // want `sim\.Config\.Seed \(a Fingerprint input\) receives a nondeterministic value`
}

// SeedFixed is deterministic: quiet.
func SeedFixed(cfg *sim.Config) {
	cfg.Seed = 42
}

// SeededDraw uses an explicitly-seeded generator — the repo's sanctioned
// reproducible-randomness pattern: quiet.
func SeededDraw(r *sim.Result, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r.Cycles = rng.Float64()
}

// Reviewed carries the retired //simlint:dettaintok escape, which no longer
// suppresses a tainted sink write.
func Reviewed(r *sim.Result, start time.Time) {
	//simlint:dettaintok operator-facing duration, stripped before fingerprinting
	r.Wall = time.Since(start).Seconds() // want `sim\.Result\.Wall receives a nondeterministic value`
}
