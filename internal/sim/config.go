package sim

import (
	"fmt"

	"repro/internal/emc"
	"repro/internal/mem/dram"
	"repro/internal/obs"
	"repro/internal/vm"
)

// PrefetcherKind selects the LLC prefetcher configuration of Table 1.
type PrefetcherKind string

// The prefetcher configurations evaluated by the paper.
const (
	PFNone         PrefetcherKind = "none"
	PFGHB          PrefetcherKind = "ghb"
	PFStream       PrefetcherKind = "stream"
	PFMarkovStream PrefetcherKind = "markov+stream"
)

// Config describes one simulated system + workload.
type Config struct {
	// Benchmarks names one SPEC profile per core; its length sets the core
	// count (4 or 8 in the paper).
	Benchmarks []string

	// InstrPerCore bounds each core's trace; the run ends when every core
	// has retired its budget (shared structures stay live until the last
	// finishes, matching the paper's methodology).
	InstrPerCore uint64

	Seed uint64

	Prefetcher PrefetcherKind
	EMCEnabled bool

	// RunaheadEnabled turns on the runahead-execution comparison baseline
	// at every core (see internal/cpu/runahead.go).
	RunaheadEnabled bool

	// UseBranchPredictor replaces trace-carried mispredict flags with the
	// Table-1 hybrid predictor running on actual branch outcomes.
	UseBranchPredictor bool

	// MCs is the number of memory controllers (1, or 2 for Fig. 11b).
	MCs int

	// DRAM geometry/timing/scheduling (Table 1 defaults by core count).
	Geometry dram.Geometry
	Timing   dram.Timing
	Sched    dram.SchedPolicy

	// LLC: one slice per core.
	LLCSliceBytes  int
	LLCLatency     int
	LLCFillLatency int

	PageShift uint

	// IdealDependentHits serves dependent misses at LLC-hit latency without
	// touching DRAM — the idealization of Fig. 2.
	IdealDependentHits bool

	// MagicChains completes installed chains instantly at trigger time with
	// functionally computed live-outs (diagnostic upper bound on the EMC
	// mechanism; not a real hardware point).
	MagicChains bool

	// MaxCycles aborts runaway simulations.
	MaxCycles uint64

	// DisableCycleSkip turns off both schedulers, the event-horizon skip of
	// whole cycles and the per-component wake gate, so every core, EMC,
	// DRAM controller and LLC slice ticks every cycle. Results are
	// bit-identical either way (see TestCycleSkipDeterminism); this run is
	// the reference for that guard and TestCycleSkipLockstep, and a
	// debugging aid.
	DisableCycleSkip bool

	EMCCfg emc.Config

	// Obs enables request-lifecycle tracing and latency attribution (see
	// internal/obs). Tracing observes timestamps the simulator produces
	// anyway and never changes simulation outcomes; with Obs.Enabled false
	// every instrumentation site is a single nil test.
	Obs obs.Config

	// Metrics, when non-nil, receives periodic live snapshots of the
	// system's counters (for /metrics). Each System registers
	// its own Group tagged with MetricsLabels.
	Metrics       *obs.Registry `json:"-"`
	MetricsLabels map[string]string

	// CounterInterval, when >0, samples every published counter into an
	// in-memory time series each N cycles (System.CounterLog), serialized
	// to JSON by the cmds.
	CounterInterval uint64
}

// Default returns the Table-1 configuration for the given benchmarks, with
// geometry picked by core count.
func Default(benchmarks []string) Config {
	cores := len(benchmarks)
	geo := dram.QuadCoreGeometry()
	mcs := 1
	if cores >= 8 {
		geo = dram.EightCoreGeometry()
	}
	ecfg := emc.DefaultConfig(cores)
	ecfg.PageShift = vm.LargePageShift
	return Config{
		Benchmarks:     benchmarks,
		InstrPerCore:   30000,
		Seed:           1,
		Prefetcher:     PFNone,
		MCs:            mcs,
		Geometry:       geo,
		Timing:         dram.DDR3(),
		Sched:          dram.SchedBatch,
		LLCSliceBytes:  1 << 20,
		LLCLatency:     18,
		LLCFillLatency: 4,
		PageShift:      vm.LargePageShift,
		MaxCycles:      200_000_000,
		EMCCfg:         ecfg,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.Benchmarks) == 0 {
		return fmt.Errorf("sim: no benchmarks")
	}
	if c.MCs != 1 && c.MCs != 2 {
		return fmt.Errorf("sim: MCs must be 1 or 2, got %d", c.MCs)
	}
	if c.Geometry.Channels%c.MCs != 0 {
		return fmt.Errorf("sim: %d channels not divisible across %d MCs",
			c.Geometry.Channels, c.MCs)
	}
	if c.InstrPerCore == 0 {
		return fmt.Errorf("sim: InstrPerCore is zero")
	}
	switch c.Prefetcher {
	case PFNone, PFGHB, PFStream, PFMarkovStream:
	default:
		return fmt.Errorf("sim: unknown prefetcher %q", c.Prefetcher)
	}
	return nil
}
