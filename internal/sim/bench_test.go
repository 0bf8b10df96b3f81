package sim

import "testing"

// benchSystem builds a System whose cores never exhaust their trace (the
// generators stream, so a huge budget costs nothing) and warms it past the
// cold-start transient so b.N steps measure steady-state stepping.
func benchSystem(b *testing.B, benchmarks []string, tweak func(*Config)) *System {
	b.Helper()
	cfg := Default(benchmarks)
	cfg.InstrPerCore = 1 << 40
	cfg.MaxCycles = ^uint64(0) >> 1
	if tweak != nil {
		tweak(&cfg)
	}
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		sys.Step()
	}
	return sys
}

// BenchmarkStepIdle measures System.Step on the paper's homogeneous 4x mcf
// point with the EMC: long memory stalls dominate, so most calls hit the
// event-horizon fast path. This is the headline allocs/op benchmark for the
// zero-allocation work — steady-state stepping should not allocate.
func BenchmarkStepIdle(b *testing.B) {
	sys := benchSystem(b, []string{"mcf", "mcf", "mcf", "mcf"},
		func(c *Config) { c.EMCEnabled = true })
	b.ReportAllocs()
	b.ResetTimer()
	start := sys.Now()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
	// One Step call can fast-forward many cycles, so ns/op alone overstates
	// the cost as skip windows grow; cycles/op recovers ns per simulated
	// cycle (= ns/op ÷ cycles/op), the number that tracks wall-clock.
	b.ReportMetric(float64(sys.Now()-start)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(sys.SkippedCycles()), "skipped")
}

// BenchmarkStepSaturated measures System.Step under a heterogeneous
// memory-intensive mix with the GHB prefetcher and the EMC: the rings, LLC
// queues, and DRAM scheduler stay busy, so nearly every cycle must tick.
func BenchmarkStepSaturated(b *testing.B) {
	sys := benchSystem(b, []string{"mcf", "lbm", "milc", "omnetpp"},
		func(c *Config) {
			c.EMCEnabled = true
			c.Prefetcher = PFGHB
		})
	b.ReportAllocs()
	b.ResetTimer()
	start := sys.Now()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
	b.ReportMetric(float64(sys.Now()-start)/float64(b.N), "cycles/op")
}

// BenchmarkStepStream measures System.Step on the store-heavy 4x lbm stream
// with the stream prefetcher and no EMC: loads park behind unresolved older
// stores on most cycles, so the core's run-token path dominates.
func BenchmarkStepStream(b *testing.B) {
	sys := benchSystem(b, []string{"lbm", "lbm", "lbm", "lbm"},
		func(c *Config) { c.Prefetcher = PFStream })
	b.ReportAllocs()
	b.ResetTimer()
	start := sys.Now()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
	b.ReportMetric(float64(sys.Now()-start)/float64(b.N), "cycles/op")
}

// chaseOpCycles is one BenchmarkStepChase op: enough simulated cycles that
// every op spans several chain walks on 4x mcf.
const chaseOpCycles = 1000

// BenchmarkStepChase measures the chain path on the paper's 4x mcf EMC
// point: full-window stalls trigger dataflow walks, chains ship to the EMC,
// execute there and return their live-outs. It warms until every core has
// shipped a chain, so the walk's scratch and the EMC's action buffer have
// reached their working size. One op advances chaseOpCycles simulated
// cycles; allocs/op is then the allocations of a few walks, so one extra
// allocation per walk moves it (see `make bench` and benchjson -diff-allocs).
func BenchmarkStepChase(b *testing.B) {
	sys := benchSystem(b, []string{"mcf", "mcf", "mcf", "mcf"},
		func(c *Config) { c.EMCEnabled = true })
	for !everyCoreShipped(sys) {
		sys.Step()
	}
	chains := func() (n uint64) {
		for _, c := range sys.cores {
			n += c.Stats.ChainsGenerated
		}
		return n
	}
	b.ReportAllocs()
	b.ResetTimer()
	start, startChains := sys.Now(), chains()
	for i := 0; i < b.N; i++ {
		for end := sys.Now() + chaseOpCycles; sys.Now() < end; {
			sys.Step()
		}
	}
	b.ReportMetric(float64(sys.Now()-start)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(chains()-startChains)/float64(b.N), "chains/op")
}

// everyCoreShipped reports whether each core has handed at least one chain
// to the EMC (generated and not cancelled before transmission).
func everyCoreShipped(sys *System) bool {
	for _, c := range sys.cores {
		if c.Stats.ChainsGenerated <= c.Stats.ChainCancels {
			return false
		}
	}
	return true
}

// BenchmarkStepMSHRBound measures System.Step on Fig12's H4 mix
// (mcf,sphinx3,soplex,libquantum) with the stream prefetcher and no EMC at
// the bench sweep's run length, 3000 instructions per core: the cores keep
// their MSHR files full, so most load issue attempts find no free MSHR.
// One op is one whole run, stepped from a System built outside the timer
// until every core finishes. It reports no allocs/op: a cold run allocates
// while its maps and slices grow to their working size, a count that
// depends on the Go map implementation, and the steady-state Step
// benchmarks above already pin the stepping path at zero.
func BenchmarkStepMSHRBound(b *testing.B) {
	cfg := Default([]string{"mcf", "sphinx3", "soplex", "libquantum"})
	cfg.InstrPerCore = 3000
	cfg.Prefetcher = PFStream
	var cycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for len(sys.live) > 0 {
			sys.Step()
		}
		cycles += sys.Now()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}
