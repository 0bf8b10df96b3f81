// Package floats is the float-order fixture: float accumulation in
// order-nondeterministic contexts must be flagged — compound and
// spelled-out forms alike — while sorted, integer, local, and reviewed
// accumulation stays quiet. The package is outside the sim-state set, so
// only the float rule applies.
package floats

import (
	"sort"
	"sync"
)

// SumMap accumulates in map order: flagged.
func SumMap(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation into sum inside map iteration`
	}
	return sum
}

// SumMapSpelled is the spelled-out accumulation form.
func SumMapSpelled(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want `float accumulation into sum inside map iteration`
	}
	return sum
}

// SumMapReversed reads the accumulator on the right of the operator.
func SumMapReversed(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = v + sum // want `float accumulation into sum inside map iteration`
	}
	return sum
}

// SumNested accumulates across two nested map ranges: one finding, not one
// per enclosing range.
func SumNested(m map[string]map[string]float64) float64 {
	var sum float64
	for _, inner := range m {
		for _, v := range inner {
			sum += v // want `float accumulation into sum inside map iteration`
		}
	}
	return sum
}

// ProdMap multiplies in map order: same associativity problem.
func ProdMap(m map[string]float64) float64 {
	p := 1.0
	for _, v := range m {
		p *= v // want `float accumulation into p inside map iteration`
	}
	return p
}

// SumSorted is the sanctioned fix: accumulate over a sorted key slice.
func SumSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// SumInt is clean: integer addition is associative.
func SumInt(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// SumLocal accumulates into a variable declared inside the range body —
// fresh per iteration, no cross-iteration order dependence.
func SumLocal(m map[string][]float64) []float64 {
	var out []float64
	for _, vs := range m {
		local := 0.0
		for _, v := range vs {
			local += v
		}
		out = append(out, local)
	}
	sort.Float64s(out)
	return out
}

// SumOrderedRange carries the reviewed map-range escape: the review already
// argued order cannot reach an output.
func SumOrderedRange(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { //simlint:ordered feeds a tolerance comparison only
		sum += v
	}
	return sum
}

// SumEscaped carries the retired //simlint:floatok escape, which no longer
// suppresses: only //simlint:ordered on the range does.
func SumEscaped(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		//simlint:floatok error bound, only compared against epsilon
		sum += v // want `float accumulation into sum inside map iteration`
	}
	return sum
}

// GoAccum accumulates into a captured float from per-iteration goroutines:
// the writes land in scheduler order.
func GoAccum(vals []float64) float64 {
	var sum float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, v := range vals {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			mu.Lock()
			sum += v // want `float accumulation into sum inside per-iteration goroutine`
			mu.Unlock()
		}(v)
	}
	wg.Wait()
	return sum
}

// GoLocal is clean: each goroutine accumulates its own local and reports
// through an indexed slot, so no cross-goroutine float order exists.
func GoLocal(vals [][]float64) []float64 {
	out := make([]float64, len(vals))
	var wg sync.WaitGroup
	for i, vs := range vals {
		wg.Add(1)
		go func(i int, vs []float64) {
			defer wg.Done()
			local := 0.0
			for _, v := range vs {
				local += v
			}
			out[i] = local
		}(i, vs)
	}
	wg.Wait()
	return out
}
