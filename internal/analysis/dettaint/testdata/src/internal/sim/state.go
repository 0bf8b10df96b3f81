// Package sim is the sim-state fixture: its import path embeds
// internal/sim so the analyzer treats it as a simulation-state package.
// Lines with want comments must be flagged; everything else is the negative
// fixture and must stay quiet.
package sim

import (
	crand "crypto/rand"
	"math"
	"math/rand"
	"sort"
	"time"
)

// State is pretend simulation-visible state.
type State struct {
	Cycle  uint64
	Seen   map[string]uint64
	Out    []string
	Weight float64
}

func clocks() int64 {
	t := time.Now()   // want `time\.Now \(wall clock\)`
	time.Sleep(1)     // want `time\.Sleep \(wall-clock dependence\)`
	_ = time.Since(t) // want `time\.Since \(wall clock\)`
	return t.UnixNano()
}

// progress is operator-facing, but in a sim-state package every clock read
// reports: the retired //simlint:wallclock escape no longer suppresses it.
func progress() time.Time {
	//simlint:wallclock
	return time.Now() // want `time\.Now \(wall clock\) in simulation-state package`
}

func entropy(b []byte) int {
	n := rand.Int()                    // want `math/rand\.Int \(unseeded global random stream\)`
	rand.Shuffle(n, func(i, j int) {}) // want `math/rand\.Shuffle \(unseeded global random stream\)`
	_, _ = crand.Read(b)               // want `crypto/rand\.Read \(entropy\)`
	return n
}

// seeded randomness through an explicit source is the sanctioned pattern.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(64)
}

// emit writes state in map order: the classic checkpoint-divergence bug.
func (s *State) emit(sink func(string)) {
	for k := range s.Seen {
		sink(k) // want `call with potential side effects inside map iteration`
	}
}

func (s *State) mutate() {
	for k, v := range s.Seen {
		s.Cycle += v             // want `write through pointer s inside map iteration`
		s.Out = append(s.Out, k) // want `write through pointer s inside map iteration`
	}
}

func (s *State) floats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation into sum inside map iteration`
	}
	return sum
}

// nestedFloats sums across two nested map ranges: one finding, not one per
// enclosing range.
func nestedFloats(m map[string]map[string]float64) float64 {
	var sum float64
	for _, inner := range m {
		for _, v := range inner {
			sum += v // want `float accumulation into sum inside map iteration`
		}
	}
	return sum
}

// perEntryFloat accumulates into a float declared inside the range body: it
// is fresh on every iteration, so map order cannot reach it. Clean.
func perEntryFloat(m map[string][]float64, limit float64) int {
	over := 0
	for _, vs := range m {
		x := 0.0
		for _, v := range vs {
			x += v
		}
		if x > limit {
			over++
		}
	}
	return over
}

// intSum is order-independent accumulation on a local: clean.
func intSum(m map[string]uint64) uint64 {
	var sum uint64
	for _, v := range m {
		sum += v
	}
	return sum
}

// sortedKeys is the sanctioned collect-then-sort idiom: clean.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unsortedKeys collects in map order and never sorts.
func unsortedKeys(m map[string]uint64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `keys accumulates map keys/values in map order and is never sorted`
	}
	return keys
}

// perEntryFilter appends into a slice declared inside the loop body: it
// cannot accumulate across iterations, so no sort is demanded. Clean.
func perEntryFilter(m map[string][]uint64) int {
	total := 0
	for _, ws := range m {
		keep := ws[:0]
		for _, w := range ws {
			if w != 0 {
				keep = append(keep, w)
			}
		}
		total += len(keep)
	}
	return total
}

// keyedCopy stores through the map key: order-independent, clean.
func keyedCopy(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v + 1
	}
	return out
}

// reviewed is order-insensitive by construction and carries the directive.
func reviewed(m map[string]*State) {
	//simlint:ordered
	for _, st := range m {
		st.Cycle = 0
	}
}

// firstMatch returns an element-dependent value from inside the loop.
func firstMatch(m map[string]uint64) string {
	for k := range m {
		if len(k) > 3 {
			return k // want `return of element-dependent value inside map iteration`
		}
	}
	return ""
}

// exists returns only constants from inside the loop: clean.
func exists(m map[string]uint64, want string) bool {
	for k := range m {
		if k == want {
			return true
		}
	}
	return false
}

// pureMath may call math functions on locals: clean.
func pureMath(m map[string]float64) float64 {
	worst := math.Inf(-1)
	for _, v := range m {
		worst = math.Max(worst, v)
	}
	return worst
}

// viaPointer writes through a local pointer into shared state.
func viaPointer(m map[string]uint64, st *State) {
	for _, v := range m {
		st.Cycle = v // want `write through pointer st inside map iteration`
	}
}
