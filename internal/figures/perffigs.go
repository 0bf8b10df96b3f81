package figures

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// pfConfigs is the baseline order of the paper's performance figures.
var pfConfigs = []sim.PrefetcherKind{sim.PFNone, sim.PFGHB, sim.PFStream, sim.PFMarkovStream}

// Fig12 reproduces Figure 12: for each quad-core workload H1–H10 and each
// prefetching configuration, the speedup of adding the EMC (EMC IPC over
// baseline IPC with the same prefetcher).
func (s *Suite) Fig12() (*Table, error) {
	var specs []spec
	for _, w := range h10() {
		for _, pf := range pfConfigs {
			specs = append(specs,
				spec{name: w.name, bench: w.bench, pf: pf},
				spec{name: w.name + "+emc", bench: w.bench, pf: pf, emc: true})
		}
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig12",
		Title:   "Quad-core EMC speedup over each prefetching baseline (H1-H10)",
		Columns: []string{"vs-none", "vs-ghb", "vs-stream", "vs-mk+st"},
		Notes:   "paper: +15% / +13% / +10% / +11% on average",
	}
	idx := 0
	cols := make([][]float64, len(pfConfigs))
	for _, w := range h10() {
		row := Row{Label: w.name}
		for c := range pfConfigs {
			base, emc := results[idx], results[idx+1]
			idx += 2
			sp := avgIPCRatio(emc, base)
			row.Values = append(row.Values, sp)
			cols[c] = append(cols[c], sp)
		}
		t.Rows = append(t.Rows, row)
	}
	avg := Row{Label: "gmean"}
	for c := range pfConfigs {
		avg.Values = append(avg.Values, gmean(cols[c]))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Fig13 reproduces Figure 13: EMC speedups on homogeneous quad-core
// workloads (four copies of each memory-intensive benchmark).
func (s *Suite) Fig13() (*Table, error) {
	names := trace.HighIntensityNames()
	var specs []spec
	for _, n := range names {
		b := []string{n, n, n, n}
		for _, pf := range pfConfigs {
			specs = append(specs,
				spec{name: "4x" + n, bench: b, pf: pf},
				spec{name: "4x" + n + "+emc", bench: b, pf: pf, emc: true})
		}
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig13",
		Title:   "Homogeneous quad-core EMC speedup per prefetching baseline",
		Columns: []string{"vs-none", "vs-ghb", "vs-stream", "vs-mk+st"},
		Notes:   "paper: mcf largest (+30% vs none); lbm ~0 (no dependent misses)",
	}
	idx := 0
	for _, n := range names {
		row := Row{Label: "4x" + n}
		for range pfConfigs {
			base, emc := results[idx], results[idx+1]
			idx += 2
			row.Values = append(row.Values, avgIPCRatio(emc, base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig14 reproduces Figure 14: eight-core EMC speedups with a single memory
// controller and with dual memory controllers (each compute-capable).
func (s *Suite) Fig14() (*Table, error) {
	var specs []spec
	for _, w := range h10() {
		b := append(append([]string{}, w.bench...), w.bench...)
		for _, mcs := range []int{1, 2} {
			for _, pf := range []sim.PrefetcherKind{sim.PFNone, sim.PFGHB} {
				specs = append(specs,
					spec{name: fmt.Sprintf("%s/%dMC", w.name, mcs), bench: b, pf: pf, mcs: mcs},
					spec{name: fmt.Sprintf("%s/%dMC+emc", w.name, mcs), bench: b, pf: pf, mcs: mcs, emc: true})
			}
		}
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig14",
		Title:   "Eight-core EMC speedup: single vs dual memory controller",
		Columns: []string{"1MC-vs-none", "1MC-vs-ghb", "2MC-vs-none", "2MC-vs-ghb"},
		Notes:   "paper: 1MC +17%/+13%; 2MC +16%/+14% (slightly lower due to EMC-EMC communication)",
	}
	idx := 0
	var cols [4][]float64
	for _, w := range h10() {
		row := Row{Label: w.name}
		for c := 0; c < 4; c++ {
			base, emc := results[idx], results[idx+1]
			idx += 2
			sp := avgIPCRatio(emc, base)
			row.Values = append(row.Values, sp)
			cols[c] = append(cols[c], sp)
		}
		t.Rows = append(t.Rows, row)
	}
	avg := Row{Label: "gmean"}
	for c := 0; c < 4; c++ {
		avg.Values = append(avg.Values, gmean(cols[c]))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Fig20 reproduces Figure 20: performance sensitivity to DRAM channels and
// ranks, for the no-prefetch baseline and the EMC system, averaged over
// H1–H10 and normalized to the 1-channel/1-rank baseline.
func (s *Suite) Fig20() (*Table, error) {
	type geo struct{ c, r int }
	geos := []geo{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {2, 4}, {4, 2}, {4, 4}}
	var specs []spec
	for _, w := range h10() {
		for _, g := range geos {
			specs = append(specs,
				spec{name: w.name, bench: w.bench, pf: "none", chans: g.c, ranks: g.r},
				spec{name: w.name + "+emc", bench: w.bench, pf: "none", chans: g.c, ranks: g.r, emc: true})
		}
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig20",
		Title:   "Sensitivity to channels x ranks (IPC normalized to 1C1R baseline)",
		Columns: []string{"baseline", "emc", "emcGain"},
		Notes:   "paper: EMC benefit largest on contended (few-channel) systems, +11% even at 4C4R",
	}
	// Average IPC per geometry across workloads.
	nW := len(h10())
	for gi, g := range geos {
		var baseIPC, emcIPC []float64
		for wi := 0; wi < nW; wi++ {
			idx := wi*len(geos)*2 + gi*2
			baseIPC = append(baseIPC, results[idx].AvgIPC())
			emcIPC = append(emcIPC, results[idx+1].AvgIPC())
		}
		label := fmt.Sprintf("%dC%dR", g.c, g.r)
		t.Rows = append(t.Rows, Row{Label: label,
			Values: []float64{mean(baseIPC), mean(emcIPC), mean(emcIPC) / mean(baseIPC)}})
	}
	// Normalize the first two columns to the 1C1R baseline.
	norm := t.Rows[0].Values[0]
	for i := range t.Rows {
		t.Rows[i].Values[0] /= norm
		t.Rows[i].Values[1] /= norm
	}
	return t, nil
}
