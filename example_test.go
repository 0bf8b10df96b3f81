package emcsim_test

import (
	"fmt"

	emcsim "repro"
)

// ExampleRun simulates a small pointer-chasing workload on the paper's
// quad-core system with the Enhanced Memory Controller enabled and reports
// the functional invariant every run must satisfy.
func ExampleRun() {
	cfg := emcsim.QuadCore(emcsim.PFNone, true)
	res, err := emcsim.Run(cfg, emcsim.Workload{
		Name:         "demo",
		Benchmarks:   []string{"mcf", "mcf", "mcf", "mcf"},
		InstrPerCore: 4000,
		Seed:         3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var mismatches uint64
	for _, e := range res.EMC {
		mismatches += e.AddrMismatches
	}
	fmt.Printf("cores: %d\n", len(res.Cores))
	fmt.Printf("address mismatches: %d\n", mismatches)
	// Output:
	// cores: 4
	// address mismatches: 0
}
