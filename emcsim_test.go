package emcsim

import "testing"

func TestRunPublicAPI(t *testing.T) {
	cfg := QuadCore(PFNone, true)
	res, err := Run(cfg, Workload{
		Name:         "smoke",
		Benchmarks:   []string{"mcf", "libquantum", "milc", "bwaves"},
		InstrPerCore: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgIPC() <= 0 {
		t.Error("IPC should be positive")
	}
	if len(res.Cores) != 4 {
		t.Errorf("want 4 cores, got %d", len(res.Cores))
	}
	if _, err := Run(cfg, Workload{Name: "empty"}); err == nil {
		t.Error("empty workload must fail")
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 29 {
		t.Errorf("want 29 benchmarks, got %d", len(Benchmarks()))
	}
	if len(HighIntensityBenchmarks()) != 8 {
		t.Errorf("want 8 high-intensity, got %d", len(HighIntensityBenchmarks()))
	}
}
