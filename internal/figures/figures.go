// Package figures regenerates every table and figure of the paper's
// evaluation (§6) from the simulator: the characterization figures (1, 2, 3,
// 6), the quad- and eight-core performance figures (12, 13, 14), the
// analysis figures (15–22), and the energy figures (23, 24).
//
// A Suite memoizes simulation runs so figures that share configurations
// (e.g. Fig. 12 and Figs. 15–19, which all analyze the H1–H10 runs) execute
// each configuration once. Runs execute concurrently up to Options.Parallel.
package figures

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options scales the experiment suite. The paper simulates >= 50M
// instructions per core; the defaults here are CI-sized and preserve the
// relative behaviour (see EXPERIMENTS.md).
type Options struct {
	InstrPerCore  uint64
	InstrPerCore8 uint64 // eight-core runs (heavier; usually smaller)
	Seed          uint64
	Parallel      int

	// Trace, when Enabled, turns lifecycle tracing on for every run in the
	// suite; retained records from all runs merge into TraceExport. FigObs
	// traces its own runs regardless (aggregates only, no retention).
	Trace obs.Config
	// Metrics, when non-nil, receives one labeled live-counter group per
	// distinct run (served by the -http debug endpoint).
	Metrics *obs.Registry

	// Runner, when non-nil, replaces the direct sim.New+Run path: every
	// fully-built run configuration is routed through it instead (the
	// experiments -jobs mode submits to the service scheduler, which
	// coalesces and caches duplicate configurations). Determinism makes the
	// two paths interchangeable — same config, bit-identical Result.
	// Trace retention (Trace.Retain) is not available through a Runner.
	Runner func(cfg sim.Config) (*sim.Result, error)
}

// DefaultOptions returns CI-friendly run lengths.
func DefaultOptions() Options {
	return Options{
		InstrPerCore:  24000,
		InstrPerCore8: 12000,
		Seed:          1,
		Parallel:      runtime.NumCPU(),
	}
}

// Table is a rendered figure: rows of labeled values.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   string
}

// Row is one labeled series of values.
type Row struct {
	Label  string
	Values []float64
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	w := 12
	for _, c := range t.Columns {
		if len(c)+1 > w {
			w = len(c) + 1
		}
	}
	lw := 14
	for _, r := range t.Rows {
		if len(r.Label) > lw {
			lw = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", lw+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", lw+2, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%*.3f", w, v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| |")
	for _, c := range t.Columns {
		b.WriteString(" " + c + " |")
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %.3f |", v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n_%s_\n", t.Notes)
	}
	return b.String()
}

// Suite runs and memoizes simulations for the figures.
type Suite struct {
	Opts Options

	mu    sync.Mutex
	cache map[string]*entry
	sem   chan struct{}
	texp  *obs.ChromeExport
}

type entry struct {
	once sync.Once
	res  *sim.Result
	err  error
}

// NewSuite builds a Suite.
func NewSuite(opts Options) *Suite {
	if opts.Parallel < 1 {
		opts.Parallel = 1
	}
	return &Suite{
		Opts:  opts,
		cache: map[string]*entry{},
		sem:   make(chan struct{}, opts.Parallel),
		texp:  &obs.ChromeExport{},
	}
}

// TraceExport returns the merged Chrome trace of every traced run so far
// (empty unless Options.Trace.Enabled with Retain).
func (s *Suite) TraceExport() *obs.ChromeExport { return s.texp }

// spec identifies one simulation configuration.
type spec struct {
	name     string // workload label (for reports)
	bench    []string
	pf       sim.PrefetcherKind
	emc      bool
	runahead bool
	mcs      int
	ideal    bool
	chans    int // 0 = default geometry
	ranks    int
	trace    bool // force tracing for this run (FigObs attribution)
}

func (sp spec) key() string {
	return fmt.Sprintf("%v|%s|%v|%v|%d|%v|%dx%d|%v", sp.bench, sp.pf, sp.emc, sp.runahead, sp.mcs, sp.ideal, sp.chans, sp.ranks, sp.trace)
}

// label is the human-readable run identity used for metrics labels and the
// Chrome trace process name.
func (sp spec) label() string {
	l := sp.name
	if sp.pf != "" && sp.pf != sim.PFNone {
		l += " pf=" + string(sp.pf)
	}
	if sp.emc {
		l += " emc"
	}
	if sp.runahead {
		l += " ra"
	}
	if sp.ideal {
		l += " ideal"
	}
	if sp.mcs > 0 {
		l += fmt.Sprintf(" mcs=%d", sp.mcs)
	}
	if sp.chans > 0 {
		l += fmt.Sprintf(" %dch x%dr", sp.chans, sp.ranks)
	}
	return l
}

// run executes (or returns the memoized result of) a spec.
func (s *Suite) run(sp spec) (*sim.Result, error) {
	s.mu.Lock()
	e, ok := s.cache[sp.key()]
	if !ok {
		e = &entry{}
		s.cache[sp.key()] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		cfg := sim.Default(sp.bench)
		cfg.Prefetcher = sp.pf
		cfg.EMCEnabled = sp.emc
		cfg.RunaheadEnabled = sp.runahead
		if sp.mcs > 0 {
			cfg.MCs = sp.mcs
		}
		cfg.IdealDependentHits = sp.ideal
		cfg.Seed = s.Opts.Seed
		cfg.InstrPerCore = s.Opts.InstrPerCore
		if len(sp.bench) >= 8 {
			cfg.InstrPerCore = s.Opts.InstrPerCore8
		}
		if sp.chans > 0 {
			cfg.Geometry.Channels = sp.chans
			cfg.Geometry.Ranks = sp.ranks
			cfg.Geometry.QueueSize = 64 * sp.chans * sp.ranks
			if cfg.Geometry.QueueSize > 512 {
				cfg.Geometry.QueueSize = 512
			}
		}
		switch {
		case s.Opts.Trace.Enabled:
			cfg.Obs = s.Opts.Trace
		case sp.trace:
			// FigObs needs attribution aggregates only: sample everything,
			// retain nothing.
			cfg.Obs = obs.Config{Enabled: true, SampleEvery: 1}
		}
		if s.Opts.Metrics != nil {
			cfg.Metrics = s.Opts.Metrics
			cfg.MetricsLabels = map[string]string{"run": sp.label()}
		}
		if s.Opts.Runner != nil {
			e.res, e.err = s.Opts.Runner(cfg)
			return
		}
		sys, err := sim.New(cfg)
		if err != nil {
			e.err = err
			return
		}
		e.res, e.err = sys.Run()
		if e.err == nil && s.Opts.Trace.Enabled && s.Opts.Trace.Retain {
			s.texp.Add(sp.label(), sys.Tracer())
		}
	})
	return e.res, e.err
}

// runMany executes specs concurrently and returns results in order.
func (s *Suite) runMany(specs []spec) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.run(specs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].name, err)
		}
	}
	return results, nil
}

// h10 returns the paper's Table-3 workloads.
func h10() []spec {
	mixes := [][]string{
		{"bwaves", "lbm", "milc", "omnetpp"},
		{"soplex", "omnetpp", "bwaves", "libquantum"},
		{"sphinx3", "mcf", "omnetpp", "milc"},
		{"mcf", "sphinx3", "soplex", "libquantum"},
		{"lbm", "mcf", "libquantum", "bwaves"},
		{"lbm", "soplex", "mcf", "milc"},
		{"bwaves", "libquantum", "sphinx3", "omnetpp"},
		{"omnetpp", "soplex", "mcf", "bwaves"},
		{"lbm", "mcf", "libquantum", "soplex"},
		{"libquantum", "bwaves", "soplex", "omnetpp"},
	}
	out := make([]spec, len(mixes))
	for i, m := range mixes {
		out[i] = spec{name: fmt.Sprintf("H%d", i+1), bench: m}
	}
	return out
}

// intensityOrder returns all benchmarks sorted ascending by memory intensity
// (the x-axis ordering of Figs. 1 and 2).
func intensityOrder() []string {
	names := trace.AllNames()
	weight := func(n string) float64 {
		p := trace.MustByName(n)
		tot := p.HotShare + p.WarmShare + p.StreamShare + p.RandomShare + p.ChaseShare
		return p.MemFrac * (p.StreamShare + p.RandomShare + p.ChaseShare) / tot
	}
	sort.Slice(names, func(i, j int) bool { return weight(names[i]) < weight(names[j]) })
	return names
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// gmean returns the geometric mean of vs, the average for speedup ratios:
// {0.5, 2} averages to 1, where the arithmetic mean says 1.25. Any ratio
// <= 0 (a run with no IPC) makes it 0.
func gmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	logs := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vs)))
}

// avgIPCRatio is the speedup metric of every figure: a's mean per-core IPC
// over b's (a ratio of arithmetic means, not a geometric mean).
func avgIPCRatio(a, b *sim.Result) float64 {
	if b.AvgIPC() == 0 {
		return 0
	}
	return a.AvgIPC() / b.AvgIPC()
}
