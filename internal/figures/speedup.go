package figures

import (
	"sort"

	"repro/internal/sim"
)

// WeightedSpeedup reports the multiprogrammed-workload metric standard in
// memory-systems evaluations: WS = Σ_i IPC_shared,i / IPC_alone,i, where the
// alone IPC comes from running each benchmark by itself on a single core
// with the full memory system. A WS of 4.0 means four cores ran as fast as
// four isolated machines; contention pushes it below that. The table shows
// WS for the no-prefetch baseline and the EMC system over H1–H10.
func (s *Suite) WeightedSpeedup() (*Table, error) {
	// Alone runs: one core, whole memory system (the conventional setup).
	aloneNames := map[string]bool{}
	for _, w := range h10() {
		for _, b := range w.bench {
			aloneNames[b] = true
		}
	}
	var aloneSpecs []spec
	order := make([]string, 0, len(aloneNames))
	for n := range aloneNames {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, n := range order {
		aloneSpecs = append(aloneSpecs, spec{name: n + "-alone", bench: []string{n}, pf: "none"})
	}
	aloneRes, err := s.runMany(aloneSpecs)
	if err != nil {
		return nil, err
	}
	alone := map[string]float64{}
	for i, n := range order {
		alone[n] = aloneRes[i].AvgIPC()
	}

	base, emc, err := s.h10Pair()
	if err != nil {
		return nil, err
	}
	ws := func(r *sim.Result) float64 { return r.WeightedSpeedupVs(alone) }

	t := &Table{
		ID:      "WS",
		Title:   "Weighted speedup (sum of IPC_shared/IPC_alone), H1-H10",
		Columns: []string{"baseline", "emc", "ratio"},
		Notes:   "4.0 = no contention; the EMC's gain under this metric parallels the IPC-based Fig. 12",
	}
	var bases, emcs, ratios []float64
	for i, w := range h10() {
		b, e := ws(base[i]), ws(emc[i])
		ratio := 0.0
		if b > 0 {
			ratio = e / b
		}
		bases = append(bases, b)
		emcs = append(emcs, e)
		ratios = append(ratios, ratio)
		t.Rows = append(t.Rows, Row{Label: w.name, Values: []float64{b, e, ratio}})
	}
	t.Rows = append(t.Rows, Row{Label: "gmean",
		Values: []float64{gmean(bases), gmean(emcs), gmean(ratios)}})
	return t, nil
}
