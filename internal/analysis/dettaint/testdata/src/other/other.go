// Package other sits outside the simulation-state package set: the same
// constructs that internal/sim/state.go flags must pass untouched here.
// This is the scoping negative fixture.
package other

import (
	"math/rand"
	"time"
)

// Wall clocks and global randomness are fine outside simulation state
// (operator tooling, service metrics, report timestamps).
func Timestamp() (time.Time, int) {
	return time.Now(), rand.Int()
}

// Map iteration with side effects is also out of scope here.
func Emit(m map[string]int, sink func(string)) {
	for k := range m {
		sink(k)
	}
}
