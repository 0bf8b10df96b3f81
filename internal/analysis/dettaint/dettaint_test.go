package dettaint_test

import (
	"testing"

	"repro/internal/analysis/dettaint"
	"repro/internal/analysis/framework/analysistest"
)

// TestFixtures drives the taint rule: taintsrc/taintuse carry values into
// the result sinks of internal/sim, internal/service and internal/figures
// across packages.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, dettaint.Analyzer,
		"testdata/src/internal/sim",
		"testdata/src/internal/service",
		"testdata/src/internal/figures",
		"testdata/src/taintsrc",
		"testdata/src/taintuse",
	)
}

// TestSimStateFixtures drives the sim-state rule over the in-scope fixture
// (internal/sim/state.go: every source reports, map ranges follow the
// collection discipline) and the out-of-scope fixture (other: the same
// constructs outside SimStatePattern, zero expected diagnostics).
func TestSimStateFixtures(t *testing.T) {
	analysistest.Run(t, dettaint.Analyzer,
		"testdata/src/internal/sim",
		"testdata/src/other",
	)
}

// TestFloatFixtures drives the float re-accumulation rule, which applies
// module-wide, outside the sim-state packages too.
func TestFloatFixtures(t *testing.T) {
	analysistest.Run(t, dettaint.Analyzer, "testdata/src/floats")
}
