package sim

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestAttributionReconciles pins the exact-sum property the attribution
// layer is built on: at SampleEvery=1 every attributed miss is also counted
// by the existing CoreMiss*/EMCMiss* accounting, at the same code points, so
// the sampled sums must equal the RunStats totals exactly — and each miss's
// components partition its end-to-end latency, so the component sums must
// too. It also checks the paper's headline effect: EMC-issued misses spend
// fewer on-chip cycles per miss than core-issued ones.
func TestAttributionReconciles(t *testing.T) {
	cfg := Default([]string{"mcf", "sphinx3", "soplex", "libquantum"})
	cfg.InstrPerCore = 5000
	cfg.EMCEnabled = true
	cfg.Obs = obs.Config{Enabled: true, SampleEvery: 1}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Obs == nil {
		t.Fatal("Result.Obs is nil with tracing enabled")
	}
	core, emc := &r.Obs.Attr.Core, &r.Obs.Attr.EMC

	if core.Count != r.Sys.CoreMissCount {
		t.Errorf("core attributed %d misses, RunStats has %d", core.Count, r.Sys.CoreMissCount)
	}
	if core.TotalSum != r.Sys.CoreMissTotal {
		t.Errorf("core attributed %d cycles, RunStats has %d", core.TotalSum, r.Sys.CoreMissTotal)
	}
	if emc.Count != r.Sys.EMCMissCount {
		t.Errorf("emc attributed %d misses, RunStats has %d", emc.Count, r.Sys.EMCMissCount)
	}
	if emc.TotalSum != r.Sys.EMCMissTotal {
		t.Errorf("emc attributed %d cycles, RunStats has %d", emc.TotalSum, r.Sys.EMCMissTotal)
	}

	for _, src := range []struct {
		name string
		a    *obs.SourceAttr
	}{{"core", core}, {"emc", emc}} {
		var sum uint64
		for c := obs.Component(0); c < obs.NumComponents; c++ {
			sum += src.a.CompSum[c]
		}
		if sum != src.a.TotalSum {
			t.Errorf("%s components sum to %d, total is %d", src.name, sum, src.a.TotalSum)
		}
		if src.a.OnChipSum()+src.a.MemSum() != src.a.TotalSum {
			t.Errorf("%s on-chip+memory split does not partition the total", src.name)
		}
	}

	if core.Count == 0 || emc.Count == 0 {
		t.Fatalf("workload produced no misses to attribute (core %d, emc %d)", core.Count, emc.Count)
	}
	coreOnChip := float64(core.OnChipSum()) / float64(core.Count)
	emcOnChip := float64(emc.OnChipSum()) / float64(emc.Count)
	if emcOnChip >= coreOnChip {
		t.Errorf("EMC on-chip cycles per miss (%.1f) not below core (%.1f)", emcOnChip, coreOnChip)
	}
}

// TestCounterLogInResult checks the interval counter time series: samples at
// the configured cadence, names matching the published gauge set, and a
// final flush at the end of the run.
func TestCounterLogInResult(t *testing.T) {
	cfg := Default([]string{"mcf", "mcf", "mcf", "mcf"})
	cfg.InstrPerCore = 3000
	cfg.CounterInterval = 5000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	l := sys.CounterLog()
	if l == nil {
		t.Fatal("CounterLog nil with CounterInterval set")
	}
	if len(l.Names) != len(gaugeNames) {
		t.Fatalf("log has %d names, want %d", len(l.Names), len(gaugeNames))
	}
	if len(l.Samples) < 2 {
		t.Fatalf("only %d samples over %d cycles at interval %d", len(l.Samples), res.Cycles, cfg.CounterInterval)
	}
	lastCycle := uint64(0)
	for i, s := range l.Samples {
		if len(s.Values) != len(l.Names) {
			t.Fatalf("sample %d has %d values", i, len(s.Values))
		}
		if i > 0 && s.Cycle <= lastCycle {
			t.Fatalf("sample cycles not increasing: %d then %d", lastCycle, s.Cycle)
		}
		lastCycle = s.Cycle
	}
	if lastCycle != res.Cycles {
		t.Errorf("final flush at cycle %d, run ended at %d", lastCycle, res.Cycles)
	}
}

// TestMetricsPublish checks a System publishes its gauges into a Registry
// group during the run.
func TestMetricsPublish(t *testing.T) {
	cfg := Default([]string{"mcf", "mcf", "mcf", "mcf"})
	cfg.InstrPerCore = 3000
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.MetricsLabels = map[string]string{"run": "test"}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) float64 {
		prefix := "emcsim_" + name + `{run="test"} `
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("registry has no %s sample:\n%s", prefix, b.String())
		return 0
	}
	if c := gauge("cycles"); c != float64(res.Cycles) {
		t.Errorf("published cycles %v, run ended at %d", c, res.Cycles)
	}
	if gauge("retired_instructions") == 0 {
		t.Error("retired_instructions never published")
	}
}
