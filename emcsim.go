// Package emcsim is the public API of the Enhanced Memory Controller
// reproduction: a cycle-level multi-core simulator implementing the system
// of Hashemi et al., "Accelerating Dependent Cache Misses with an Enhanced
// Memory Controller" (ISCA 2016).
//
// The package wraps the internal simulator behind a small, stable surface:
// build a SystemConfig (Table 1 of the paper by default), name a Workload
// (any benchmark list, such as the paper's Table-3 mixes), and Run it to get
// a Result with the statistics every figure of the paper derives from.
//
//	cfg := emcsim.QuadCore(emcsim.PFGHB, true) // GHB prefetcher + EMC
//	res, err := emcsim.Run(cfg, emcsim.Workload{
//	    Name:         "H4",
//	    Benchmarks:   []string{"mcf", "sphinx3", "soplex", "libquantum"},
//	    InstrPerCore: 50_000,
//	})
package emcsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// PrefetcherKind selects the LLC prefetcher configuration (Table 1).
type PrefetcherKind = sim.PrefetcherKind

// The prefetcher configurations evaluated in the paper.
const (
	PFNone         = sim.PFNone
	PFGHB          = sim.PFGHB
	PFStream       = sim.PFStream
	PFMarkovStream = sim.PFMarkovStream
)

// SystemConfig describes the simulated chip. It is a re-export of the
// internal configuration; construct it with QuadCore/EightCore and adjust
// fields for sensitivity studies.
type SystemConfig = sim.Config

// Result carries everything a run measures; see the methods on sim.Result
// for the derived metrics used by the paper's figures (miss latencies,
// row-conflict rates, EMC coverage, energy breakdown, ...).
type Result = sim.Result

// Workload names a multiprogrammed benchmark mix.
type Workload struct {
	Name         string
	Benchmarks   []string
	InstrPerCore uint64
	Seed         uint64
}

// QuadCore returns the paper's quad-core system (Fig. 7, Table 1) with the
// given prefetcher and EMC setting. Benchmarks are supplied at Run time.
func QuadCore(pf PrefetcherKind, emc bool) SystemConfig {
	cfg := sim.Default(make([]string, 4))
	cfg.Benchmarks = nil
	cfg.Prefetcher = pf
	cfg.EMCEnabled = emc
	return cfg
}

// EightCore returns the paper's eight-core system (Fig. 11) with mcs memory
// controllers (1 or 2).
func EightCore(pf PrefetcherKind, emc bool, mcs int) SystemConfig {
	cfg := sim.Default(make([]string, 8))
	cfg.Benchmarks = nil
	cfg.Prefetcher = pf
	cfg.EMCEnabled = emc
	cfg.MCs = mcs
	return cfg
}

// System re-exports the simulator handle. Build one with NewSystem when you
// need more than the Result — the lifecycle Tracer (Chrome trace export) and
// the interval CounterLog live on the System, not the Result.
type System = sim.System

// RunHandle re-exports the cancellable run driver: build one with
// System.NewRunHandle to get cooperative cancellation (SIGINT handling, the
// job service) and periodic Progress callbacks.
type RunHandle = sim.RunHandle

// Progress is one periodic snapshot of an in-flight run.
type Progress = sim.Progress

// ErrCancelled is returned by RunHandle.Run when the run was cancelled; the
// Result alongside it carries partial statistics.
var ErrCancelled = sim.ErrCancelled

// NewSystem builds (but does not run) a simulator for workload wl on system
// cfg. Call Run on the returned System; observability handles (Tracer,
// CounterLog) remain valid afterwards.
func NewSystem(cfg SystemConfig, wl Workload) (*System, error) {
	if len(wl.Benchmarks) == 0 {
		return nil, fmt.Errorf("emcsim: workload %q has no benchmarks", wl.Name)
	}
	cfg.Benchmarks = wl.Benchmarks
	if wl.InstrPerCore > 0 {
		cfg.InstrPerCore = wl.InstrPerCore
	}
	if wl.Seed > 0 {
		cfg.Seed = wl.Seed
	}
	return sim.New(cfg)
}

// Run simulates workload wl on system cfg and returns the collected result.
func Run(cfg SystemConfig, wl Workload) (*Result, error) {
	sys, err := NewSystem(cfg, wl)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// Benchmarks returns every available SPEC CPU2006 benchmark profile name.
func Benchmarks() []string { return trace.AllNames() }

// HighIntensityBenchmarks returns the paper's Table-2 high-MPKI set.
func HighIntensityBenchmarks() []string { return trace.HighIntensityNames() }
