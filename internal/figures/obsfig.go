package figures

import (
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FigObs renders the latency-attribution companion to Figs. 1/2 and 18/19:
// for the H1–H10 EMC runs, the average end-to-end miss latency split into
// ring+LLC (interconnect + LLC lookup) and mc+dram (MC queue + DRAM +
// merged) cycles, for core-issued vs EMC-issued misses. The paper's on-chip
// delay (Fig1's onchip) also counts MC queueing, so the ring+LLC columns
// are only part of it. Measured from sampled request lifecycles
// (SampleEvery=1, so the sums reconcile exactly with the
// CoreMissLatency/EMCMissLatency counters).
func (s *Suite) FigObs() (*Table, error) {
	specs := h10()
	for i := range specs {
		specs[i].pf = sim.PFNone
		specs[i].emc = true
		specs[i].trace = true
	}
	rs, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Obs",
		Title: "Miss-latency attribution, core vs EMC (avg cycles; ring+LLC vs MC+DRAM)",
		Columns: []string{"core total", "core ring+llc", "core mc+dram",
			"emc total", "emc ring+llc", "emc mc+dram", "ring+llc ratio"},
	}
	cols := make([][]float64, len(t.Columns))
	for i, sp := range specs {
		r := rs[i]
		if r.Obs == nil {
			continue
		}
		core, emc := &r.Obs.Attr.Core, &r.Obs.Attr.EMC
		vals := []float64{
			core.MeanTotal(),
			stats.Ratio(core.OnChipSum(), core.Count),
			stats.Ratio(core.MemSum(), core.Count),
			emc.MeanTotal(),
			stats.Ratio(emc.OnChipSum(), emc.Count),
			stats.Ratio(emc.MemSum(), emc.Count),
			ringLLCRatio(emc, core),
		}
		t.Rows = append(t.Rows, Row{Label: sp.name, Values: vals})
		for j, v := range vals {
			cols[j] = append(cols[j], v)
		}
	}
	meanRow := Row{Label: "mean"}
	for _, c := range cols {
		meanRow.Values = append(meanRow.Values, mean(c))
	}
	t.Rows = append(t.Rows, meanRow)
	t.Notes = "ring+llc ratio = EMC ring+LLC cycles / core ring+LLC cycles per miss; " +
		"< 1 means EMC-issued misses spend less time on the ring and in LLC lookups. " +
		"MC queueing sits in the mc+dram columns; the paper's on-chip delay (Fig1's onchip) includes it"
	return t, nil
}

// ringLLCRatio compares per-miss ring+LLC cycles between two sources.
func ringLLCRatio(a, b *obs.SourceAttr) float64 {
	num := stats.Ratio(a.OnChipSum(), a.Count)
	den := stats.Ratio(b.OnChipSum(), b.Count)
	if den == 0 {
		return 0
	}
	return num / den
}
