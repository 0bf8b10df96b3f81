// Command simlint is the multichecker driver for the repo's custom static
// analyzers. It mechanically enforces the invariants the simulator's
// correctness story rests on:
//
//	hotalloc         //simlint:noalloc functions contain no
//	                 allocation-inducing constructs
//	failpoint        fault.Register sites are unique constants from the
//	                 internal/fault/sites.go registry
//	dettaint         nondeterminism (clocks, entropy, select interleaving,
//	                 map order) stays out of simulation-state packages and
//	                 result sinks — tracked across package boundaries —
//	                 and float sums do not follow map or goroutine order
//	goroutineleak    every service/cluster goroutine has a reachable stop
//	                 path, so Close/Drain joins cannot hang
//
// dettaint's sink rule and goroutineleak run on the cross-package dataflow
// IR (internal/analysis/framework/ir.go): facts propagate over the module
// call graph, so a clock read three calls and two packages away from a
// sim.Result still reports.
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -run dettaint,hotalloc ./internal/sim/...
//	go run ./cmd/simlint -json ./...   # NDJSON findings for CI
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"os"

	"repro/internal/analysis/dettaint"
	"repro/internal/analysis/failpoint"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/goroutineleak"
	"repro/internal/analysis/hotalloc"
)

func main() {
	// Findings go to stdout so CI can pipe -json output straight into jq;
	// the exit code carries the verdict either way.
	framework.Exit(framework.Main(os.Stdout, os.Args[1:], []*framework.Analyzer{
		hotalloc.Analyzer,
		failpoint.Analyzer,
		dettaint.Analyzer,
		goroutineleak.Analyzer,
	}))
}
