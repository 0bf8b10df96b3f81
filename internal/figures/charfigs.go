package figures

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig1 reproduces Figure 1: for each SPEC benchmark (four copies on the
// quad-core, no prefetching), the split of average LLC-miss latency into the
// DRAM access itself and all other on-chip delay, in cycles.
func (s *Suite) Fig1() (*Table, error) {
	names := intensityOrder()
	specs := make([]spec, len(names))
	for i, n := range names {
		specs[i] = spec{name: "4x" + n, bench: []string{n, n, n, n}, pf: "none"}
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig1",
		Title:   "LLC-miss latency split: DRAM access vs on-chip delay (cycles)",
		Columns: []string{"dram", "onchip", "total", "onchip%"},
		Notes:   "benchmarks ascending in memory intensity; on-chip = queueing + interconnect + cache lookups + fill path",
	}
	for i, r := range results {
		n := float64(r.Sys.CoreMissSegCount)
		if n == 0 || r.Sys.CoreMissCount == 0 {
			t.Rows = append(t.Rows, Row{Label: names[i], Values: []float64{0, 0, 0, 0}})
			continue
		}
		// Both averages over the segment-tracked population so the split is
		// internally consistent (merged waiters without early stamps are
		// excluded from both numerator and denominator).
		total := float64(r.Sys.CoreMissTotal) / float64(r.Sys.CoreMissCount)
		dram := float64(r.Sys.CoreMissDRAM) / n
		if dram > total {
			dram = total
		}
		onchip := total - dram
		t.Rows = append(t.Rows, Row{Label: names[i],
			Values: []float64{dram, onchip, total, 100 * onchip / total}})
	}
	return t, nil
}

// Fig2 reproduces Figure 2: the fraction of LLC misses that depend on a
// prior LLC miss, and the speedup if those misses were served at LLC-hit
// latency (the ideal-dependent-hit mode).
func (s *Suite) Fig2() (*Table, error) {
	names := intensityOrder()
	var specs []spec
	for _, n := range names {
		b := []string{n, n, n, n}
		specs = append(specs,
			spec{name: "4x" + n, bench: b, pf: "none"},
			spec{name: "4x" + n + "-ideal", bench: b, pf: "none", ideal: true})
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig2",
		Title:   "Dependent-miss share of LLC misses and ideal-hit speedup",
		Columns: []string{"dep%", "idealSpeedup"},
		Notes:   "paper: mcf ~45% dependent, +95% ideal speedup; shape target is monotone with pointer intensity",
	}
	for i := 0; i < len(results); i += 2 {
		base, ideal := results[i], results[i+1]
		t.Rows = append(t.Rows, Row{Label: names[i/2], Values: []float64{
			100 * base.DependentMissFraction(),
			avgIPCRatio(ideal, base),
		}})
	}
	return t, nil
}

// Fig3 reproduces Figure 3: the percentage of dependent cache misses covered
// (turned into hits) by the GHB, stream, and Markov+stream prefetchers, for
// the memory-intensive benchmarks.
func (s *Suite) Fig3() (*Table, error) {
	names := trace.HighIntensityNames()
	pfs := []string{"ghb", "stream", "markov+stream"}
	var specs []spec
	for _, n := range names {
		b := []string{n, n, n, n}
		for _, pf := range pfs {
			specs = append(specs, spec{name: n + "+" + pf, bench: b, pf: sim.PrefetcherKind(pf)})
		}
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig3",
		Title:   "% of dependent cache misses covered by each prefetcher",
		Columns: []string{"ghb", "stream", "markov+stream"},
		Notes:   "paper: under 20% on average for every prefetcher",
	}
	idx := 0
	for _, n := range names {
		row := Row{Label: n}
		for range pfs {
			r := results[idx]
			idx++
			dep := float64(r.Sys.DepMisses + r.Sys.DepCovered)
			cov := 0.0
			if dep > 0 {
				cov = 100 * float64(r.Sys.DepCovered) / dep
			}
			row.Values = append(row.Values, cov)
		}
		t.Rows = append(t.Rows, row)
	}
	avg := Row{Label: "mean"}
	for c := range pfs {
		var vs []float64
		for _, r := range t.Rows {
			vs = append(vs, r.Values[c])
		}
		avg.Values = append(avg.Values, mean(vs))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Fig6 reproduces Figure 6: the average number of operations in the
// dependence chain between a source miss and its dependent miss, measured
// from the generated uop streams (the ground truth the chains are built
// from).
func (s *Suite) Fig6() (*Table, error) {
	t := &Table{
		ID:      "Fig6",
		Title:   "Average ops between a source miss and its dependent miss",
		Columns: []string{"avgOps"},
		Notes:   "paper: roughly 6-12 across the memory-intensive benchmarks",
	}
	for _, n := range trace.HighIntensityNames() {
		g := trace.NewGenerator(trace.MustByName(n), s.Opts.Seed)
		for i := uint64(0); i < s.Opts.InstrPerCore; i++ {
			g.Next()
		}
		st := g.Stats()
		v := 0.0
		if st.DepChainLinks > 0 {
			v = float64(st.DepChainOps) / float64(st.DepChainLinks)
		}
		t.Rows = append(t.Rows, Row{Label: n, Values: []float64{v}})
	}
	return t, nil
}
