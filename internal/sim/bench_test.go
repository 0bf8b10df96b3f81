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
