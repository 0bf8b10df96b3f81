package figures

// ExtRunahead is an extension experiment beyond the paper's figures: the
// paper argues (§1, §2) that runahead execution and the EMC are
// complementary — runahead generates memory-level parallelism from
// *independent* misses while the EMC accelerates the *dependent* misses
// runahead must discard. This experiment runs both mechanisms, alone and
// combined, on the pointer-chasing homogeneous workload and the H4 mix.
func (s *Suite) ExtRunahead() (*Table, error) {
	workloads := []spec{
		{name: "4xmcf", bench: []string{"mcf", "mcf", "mcf", "mcf"}},
		{name: "4xmilc", bench: []string{"milc", "milc", "milc", "milc"}},
		{name: "H4", bench: []string{"mcf", "sphinx3", "soplex", "libquantum"}},
	}
	var specs []spec
	for _, w := range workloads {
		base := w
		base.pf = "none"
		ra := base
		ra.runahead = true
		emcOnly := base
		emcOnly.emc = true
		both := base
		both.emc = true
		both.runahead = true
		specs = append(specs, base, ra, emcOnly, both)
	}
	results, err := s.runMany(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ExtRA",
		Title:   "Extension: runahead vs EMC vs both (speedup over baseline)",
		Columns: []string{"runahead", "emc", "both"},
		Notes:   "runahead targets independent misses (milc), the EMC dependent ones (mcf); the paper positions them as complementary",
	}
	for i, w := range workloads {
		base := results[i*4]
		row := Row{Label: w.name}
		for k := 1; k < 4; k++ {
			row.Values = append(row.Values, avgIPCRatio(results[i*4+k], base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
