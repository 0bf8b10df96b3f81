package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/sim"
)

// goldenJSON maps workload name -> seed -> digest of a correct repeat at the
// sizes in workloads. A size change changes the digests; README.md says how
// to regenerate them.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest is an FNV-1a hash over the sorted Result.Hash values of a repeat's
// cold results: it pins every simulated outcome, whatever order the jobs
// finished in.
func digest(results []*sim.Result) string {
	hs := make([]uint64, len(results))
	for i, r := range results {
		hs[i] = r.Hash()
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	h := fnv.New64a()
	var b [8]byte
	for _, x := range hs {
		binary.BigEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
