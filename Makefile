GO ?= go

.PHONY: all build vet fmt-check lint lint-canary test race bench experiments results-check trace-smoke serve-smoke dashboard-smoke chaos chaos-cluster kill-smoke cluster-smoke heal-smoke clean

all: build test

build:
	$(GO) build ./...

vet: fmt-check
	$(GO) vet ./...

# Formatting gate: every Go file outside testdata/ (analyzer fixtures keep
# their deliberate layouts) and the bench build directory must be gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(find . -path ./.bench_build -prune -o -path '*/testdata' -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Custom static analysis (cmd/simlint), four analyzers: zero-alloc,
# failpoint registry, determinism (sim-state sources, taint into result
# sinks, float order) and goroutine-leak — the last two on the
# cross-package dataflow IR. Copies of sync/atomic values are go vet's
# copylocks check (the vet target). The driver is built through the normal
# go build cache, so warm runs cost seconds.
lint:
	$(GO) run ./cmd/simlint ./...

# Lint self-test: inject known violations (a wall clock flowing into a
# Result in the cluster layer, a leaked goroutine, a make in a noalloc
# function, a literal failpoint site, a wall-clock read in internal/sim, a
# map-order float sum) into a throwaway overlay of the tree and assert
# simlint fails on each, naming the right analyzer for every name
# `simlint -list` prints, and that go vet rejects a by-value atomic.Int64 —
# so a silently broken check cannot pass CI by reporting nothing (see
# scripts/lint_canary.sh).
lint-canary:
	GO="$(GO)" sh scripts/lint_canary.sh

# Tier-1 gate: build everything, vet + simlint, run the full test suite,
# the race-enabled suites over the simulator core, the uop feed and its
# producer goroutines, the job scheduler, and the cluster fabric, and the
# observability end-to-end smoke.
test: build vet lint
	$(GO) test ./...
	$(GO) test -race ./internal/sim/... ./internal/trace/... ./internal/service/... ./internal/obs/... ./internal/cluster/...
	$(MAKE) trace-smoke

race:
	$(GO) test -race ./internal/sim/... ./internal/trace/... ./internal/service/... ./internal/obs/... ./internal/cluster/...

# Process smokes (cmd/smoke): each target is one scenario of one Go harness,
# which builds emcserve, emcctl, emcsim and tracecheck once into a temporary
# directory and removes it on exit. `$(GO) run ./cmd/smoke` runs all six.
#
# Observability smoke: run a tiny traced workload with the debug server up,
# validate the Chrome trace against the schema, scrape /metrics, and check
# the interval counter log.
trace-smoke:
	$(GO) run ./cmd/smoke trace

# Service smoke: boot emcserve, submit a tiny job with emcctl, verify the
# cached-resubmit path and the graceful SIGTERM drain.
serve-smoke:
	$(GO) run ./cmd/smoke serve

# Observability smoke: boot emcserve with the flight recorder armed and an
# induced oneshot panic, run a small sweep, then assert /api/v1/stats,
# emcctl top, the flight dump (tracecheck -flight), and the span trace
# export.
dashboard-smoke:
	$(GO) run ./cmd/smoke dashboard

# Chaos suite: 50 seeded fault schedules through the service under the race
# detector (failpoint injection, random cancels, durable-cache restarts with
# corruption). Deterministic per seed; see internal/service/chaos_test.go.
chaos:
	EMCSIM_CHAOS_SCHEDULES=50 $(GO) test -race -run TestChaosSchedules -count=1 ./internal/service/

# Multi-node chaos: 25 seeded fault schedules through a 3-node fabric under
# the race detector (forwarding/fetch/fetch-tear/steal failpoints, a network
# partition window, node kills mid-sweep), plus 25 self-healing schedules
# (join mid-sweep, kill-and-restart with anti-entropy backfill, a flapping
# peer marked dead and found alive again). Deterministic per seed; see
# internal/cluster/chaos_cluster_test.go and chaos_heal_test.go.
chaos-cluster:
	EMCSIM_CHAOS_SCHEDULES=25 $(GO) test -race -run 'TestClusterChaosSchedules|TestClusterHealSchedules' -count=1 ./internal/cluster/

# Crash-recovery smoke: boot emcserve with a durable cache, compute a
# result, SIGKILL the server mid-sweep, restart it over the same directory,
# and verify the resubmitted job is served from the durable cache with a
# byte-identical result.
kill-smoke:
	$(GO) run ./cmd/smoke kill

# Sweep-fabric smoke: boot three real emcserve nodes (-node-id/-join), run
# the same sweep through different entry nodes, SIGKILL one node mid-sweep,
# and verify every job completes with byte-identical results on the
# survivors.
cluster-smoke:
	$(GO) run ./cmd/smoke cluster

# Self-healing smoke: boot a token-authenticated 3-node fabric where one
# node joins mid-sweep, SIGKILL it mid-flight of a second sweep, restart it
# over the same durable cache directory, and verify its record set converges
# byte-for-byte with the survivor via anti-entropy alone.
heal-smoke:
	$(GO) run ./cmd/smoke heal

# Microbenchmark snapshot: every benchmark in the simulator core,
# interconnect, and DRAM packages, captured as JSON so a later session (or
# CI's bench job) can diff allocation and latency regressions. Two runs:
#
# - The allocation run pins the iteration count (not time-based) so
#   allocs/op is deterministic: warm-up loops inside the benchmarks reach
#   steady-state pool/queue capacity, and at 100 measured iterations any
#   per-op allocation shows up as >= 1 alloc/op instead of being rounded
#   away. Its ns/op is too short to time anything.
# - The timing run repeats the four System.Step benchmarks 5 times at
#   1s each; benchjson -timing replaces each one's ns/op with the median
#   and adds the min and max ns/op and ns per simulated cycle to its entry.
BENCHTIME ?= 100x
bench:
	$(GO) test -run xxx -bench . -benchtime=$(BENCHTIME) -count=1 \
		./internal/sim/ ./internal/interconnect/ ./internal/mem/dram/ ./internal/obs/span/ \
		| $(GO) run ./cmd/benchjson > BENCH_sim.json
	$(GO) test -run xxx -bench 'BenchmarkStep(Idle|Saturated|Stream|Chase)$$' \
		-benchtime=1s -count=5 ./internal/sim/ \
		| $(GO) run ./cmd/benchjson -timing BENCH_sim.json
	@echo wrote BENCH_sim.json
	$(GO) run ./cmd/benchjson -check-noalloc BENCH_sim.json
	$(GO) run ./cmd/benchjson -trend BENCH_history.jsonl -trend-keep 200 \
		-commit $$(git rev-parse --short HEAD 2>/dev/null || echo unknown) BENCH_sim.json

experiments:
	$(GO) run ./cmd/experiments -n 30000 -n8 15000 -md results-run.md

# Results gate: regenerate results.md at its run length into a temporary
# file and diff it against the committed results.md (only the Run:
# timestamp line is not compared). About 25 s on two cores; see
# scripts/results_check.sh.
results-check:
	GO="$(GO)" sh scripts/results_check.sh

clean:
	rm -f BENCH_sim.json results-run.md *.test *.prof
