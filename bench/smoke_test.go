package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at toy sizes: no operation may fail, every
// metric must be measured, the end-to-end ones non-zero, and each layer
// must show activity where its workload exercises it.
func TestSmoke(t *testing.T) {
	active := map[string][]string{
		"chase":  {"emc.chains_done", "cpu.chains_generated", "sim.skip_ratio"},
		"stream": {"prefetch.issued", "dram.writes", "sim.skip_ratio"},
		"sweep":  {"service.executed", "cached_p50_us", "service.cache_hit_us", "service.running_s"},
		"fabric": {"service.executed", "cluster.forwarded", "cluster.overhead_share"},
	}
	idle := map[string][]string{
		"chase":  {"prefetch.issued", "service.executed"},
		"stream": {"emc.uops", "cluster.forwarded"},
		"sweep":  {"cluster.forwarded"},
	}
	for _, w := range workloads {
		w.instr, w.seeds, w.renders = 500, min(w.seeds, 1), min(w.renders, 2)
		t.Run(w.name, func(t *testing.T) {
			o, err := measure(w, 3, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			if o.Attempted == 0 || o.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.Attempted, o.Failed, o.Failures)
			}
			vals, err := o.values()
			if err != nil {
				t.Fatal(err)
			}
			e2e, err := pick(vals, endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			if _, err := pick(vals, perLayer[len(hostLayers):]); err != nil {
				t.Fatal(err)
			}
			for _, name := range active[w.name] {
				if vals[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, vals[name])
				}
			}
			for _, name := range idle[w.name] {
				if vals[name] != 0 {
					t.Errorf("%s = %v, want 0", name, vals[name])
				}
			}
		})
	}
}

func TestSimSeed(t *testing.T) {
	for seed, want := range map[uint64]uint64{0: simSeeds, 1: 1, 2: 2, simSeeds: simSeeds, simSeeds + 1: 1, 1000: 1000 % simSeeds} {
		if got := simSeed(seed); got != want {
			t.Errorf("simSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the metric tables and the golden
// digests in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the bench command %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the bench command %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the bench command %s", i, b.Workloads[i].Name, w.name)
		}
		for _, seed := range []string{"1", "2"} {
			if golden[w.name][seed] == "" {
				t.Errorf("golden.json has no digest for %s seed %s", w.name, seed)
			}
		}
	}
}
