package failpoint_test

import (
	"testing"

	"repro/internal/analysis/failpoint"
	"repro/internal/analysis/framework/analysistest"
)

// TestFixtures loads the fixture fault package and a consumer package in
// one run, so the module-wide checks (cross-package uniqueness, registry
// drift) see both sides.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, failpoint.Analyzer,
		"testdata/src/internal/fault",
		"testdata/src/use",
	)
}
