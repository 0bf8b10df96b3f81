// Ablation benchmarks quantifying design choices called out in DESIGN.md §5
// (miss predictor, EMC cache, DRAM scheduler). Each runs 4xmcf at
// ablationInstr instructions per core on every seed of ablationSeeds, takes
// the IPC ratio of the Table-1 choice over the ablated one per seed (the
// same seed drives both designs, so trace noise cancels in the pair), and
// reports the mean ratio with its min and max over the seeds:
//
//	go test -run '^$' -bench Ablation -benchtime 1x .
//
// The figures themselves are regenerated by `experiments -only FigN`.
package emcsim

import (
	"testing"

	"repro/internal/mem/dram"
	"repro/internal/sim"
)

// ablationInstr is the per-core run length: ROADMAP item 1 measured the
// seed spread at this size, below which it swamps the effects measured here.
const ablationInstr = 30000

var ablationSeeds = []uint64{1, 2, 3}

// ablationIPC returns avg IPC of 4xmcf on one seed under a config tweak.
func ablationIPC(b *testing.B, seed uint64, mut func(*sim.Config)) float64 {
	b.Helper()
	cfg := sim.Default([]string{"mcf", "mcf", "mcf", "mcf"})
	cfg.InstrPerCore = ablationInstr
	cfg.Seed = seed
	mut(&cfg)
	sys, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		b.Fatal(err)
	}
	return r.AvgIPC()
}

// reportRatio reports IPC(base)/IPC(alt) paired per seed: the mean as unit,
// the extremes as unit_min and unit_max.
func reportRatio(b *testing.B, unit string, base, alt func(*sim.Config)) {
	b.Helper()
	var sum, lo, hi float64
	for i := 0; i < b.N; i++ {
		sum, lo, hi = 0, 0, 0
		for k, seed := range ablationSeeds {
			r := ablationIPC(b, seed, base) / ablationIPC(b, seed, alt)
			sum += r
			if k == 0 || r < lo {
				lo = r
			}
			if k == 0 || r > hi {
				hi = r
			}
		}
	}
	b.ReportMetric(sum/float64(len(ablationSeeds)), unit)
	b.ReportMetric(lo, unit+"_min")
	b.ReportMetric(hi, unit+"_max")
}

func withEMC(c *sim.Config) { c.EMCEnabled = true }

// BenchmarkAblationMissPredictor contrasts the miss predictor's DRAM-direct
// path against forcing every EMC load through the LLC.
func BenchmarkAblationMissPredictor(b *testing.B) {
	reportRatio(b, "vsLLCOnly", withEMC, func(c *sim.Config) {
		withEMC(c)
		c.EMCCfg.MissPredThreshold = 8 // unreachable: never predict miss
	})
}

// BenchmarkAblationEMCCache contrasts the 4 KB EMC data cache with a
// minimal 256 B one.
func BenchmarkAblationEMCCache(b *testing.B) {
	reportRatio(b, "vs256B", withEMC, func(c *sim.Config) {
		withEMC(c)
		c.EMCCfg.CacheSize = 256
	})
}

// BenchmarkAblationScheduler contrasts batch scheduling and FR-FCFS with
// FCFS on the baseline system.
func BenchmarkAblationScheduler(b *testing.B) {
	sched := func(pol dram.SchedPolicy) func(*sim.Config) {
		return func(c *sim.Config) { c.Sched = pol }
	}
	reportRatio(b, "batchVsFCFS", sched(dram.SchedBatch), sched(dram.SchedFCFS))
	reportRatio(b, "frfcfsVsFCFS", sched(dram.SchedFRFCFS), sched(dram.SchedFCFS))
}
