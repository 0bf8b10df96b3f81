#!/bin/sh
# Lint canary: prove every simlint analyzer, and go vet's atomic copy
# check, still fire.
#
# A static analyzer that silently stops reporting looks exactly like a clean
# tree, so "make lint is green" alone is not evidence the lint suite works.
# This script copies the module into a throwaway overlay, verifies the clean
# tree passes, injects one known violation per analyzer into the cluster
# layer — a wall clock flowing into a sim.Result (dettaint), a goroutine
# with no stop path (goroutineleak), a make inside a //simlint:noalloc
# function (hotalloc), and a fault.Register with a string literal
# (failpoint) — plus one each for dettaint's package-local rules — a
# wall-clock read in internal/sim and a map-order float sum in
# internal/cluster — and asserts simlint exits nonzero with the right
# analyzer reporting inside each canary file. The analyzer list comes from
# `simlint -list`, so an analyzer without a zz_canary_<name>.go file fails
# the canary instead of going unchecked. Copies of sync/atomic values are
# go vet's copylocks check, so a by-value atomic.Int64 parameter must make
# go vet fail naming its file.
set -eu

GO="${GO:-go}"
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT INT TERM

overlay="$work/tree"
mkdir -p "$overlay"
# Copy the module sources; VCS state and test binaries are irrelevant to
# go list and only slow the copy down.
(cd "$root" && tar -cf - --exclude .git --exclude '*.test' .) \
	| (cd "$overlay" && tar -xf -)

echo "lint-canary: precheck (clean tree must pass)"
if ! (cd "$overlay" && "$GO" run ./cmd/simlint ./... >/dev/null); then
	echo "lint-canary: FAIL: clean tree does not pass simlint" >&2
	exit 1
fi

cat > "$overlay/internal/cluster/zz_canary_dettaint.go" <<'EOF'
package cluster

import (
	"time"

	"repro/internal/sim"
)

// canaryTaint writes the wall clock into a Result field: dettaint must fire.
func canaryTaint(r *sim.Result) {
	r.Cycles = uint64(time.Now().UnixNano())
}
EOF

cat > "$overlay/internal/cluster/zz_canary_goroutineleak.go" <<'EOF'
package cluster

import "time"

// canaryLeak spawns a goroutine whose loop never observes a stop signal:
// goroutineleak must fire.
func canaryLeak() {
	go func() {
		for {
			time.Sleep(time.Millisecond)
		}
	}()
}
EOF

cat > "$overlay/internal/cluster/zz_canary_hotalloc.go" <<'EOF'
package cluster

// canaryNoalloc allocates inside a noalloc function: hotalloc must fire.
//
//simlint:noalloc
func canaryNoalloc(n int) []byte {
	return make([]byte, n)
}
EOF

cat > "$overlay/internal/cluster/zz_canary_failpoint.go" <<'EOF'
package cluster

import "repro/internal/fault"

// canaryFailpoint registers a site by string literal instead of a registry
// constant: failpoint must fire.
var canaryFailpoint = fault.Register("cluster/canary")
EOF

cat > "$overlay/internal/cluster/zz_canary_atomiccopy.go" <<'EOF'
package cluster

import "sync/atomic"

// canaryAtomicCopy takes an atomic.Int64 by value, forking the counter:
// go vet's copylocks check must fire.
func canaryAtomicCopy(c atomic.Int64) int64 {
	return c.Load()
}
EOF

cat > "$overlay/internal/sim/zz_canary_wallclock.go" <<'EOF'
package sim

import "time"

// canaryWallclock reads the wall clock in a simulation-state package:
// dettaint must fire.
func canaryWallclock() int64 {
	return time.Now().UnixNano()
}
EOF

cat > "$overlay/internal/cluster/zz_canary_floatsum.go" <<'EOF'
package cluster

// canaryFloatSum accumulates floats in map order: dettaint must fire.
func canaryFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
EOF

out="$work/findings.txt"
if (cd "$overlay" && "$GO" run ./cmd/simlint ./... >"$out" 2>&1); then
	echo "lint-canary: FAIL: simlint exited 0 with injected violations" >&2
	cat "$out" >&2
	exit 1
fi

if ! analyzers="$(cd "$overlay" && "$GO" run ./cmd/simlint -list)" || [ -z "$analyzers" ]; then
	echo "lint-canary: FAIL: simlint -list printed no analyzers" >&2
	exit 1
fi

fail=0
for a in $analyzers; do
	if ! grep -q "zz_canary_${a}\.go.*(${a})" "$out"; then
		echo "lint-canary: FAIL: ${a} did not report inside zz_canary_${a}.go" >&2
		fail=1
	fi
done
for c in wallclock floatsum; do
	if ! grep -q "zz_canary_${c}\.go.*(dettaint)" "$out"; then
		echo "lint-canary: FAIL: dettaint did not report inside zz_canary_${c}.go" >&2
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	cat "$out" >&2
	exit 1
fi

vetout="$work/vet.txt"
if (cd "$overlay" && "$GO" vet ./internal/cluster/ >"$vetout" 2>&1); then
	echo "lint-canary: FAIL: go vet exited 0 with a by-value atomic.Int64" >&2
	cat "$vetout" >&2
	exit 1
fi
if ! grep -q "zz_canary_atomiccopy\.go.*lock by value" "$vetout"; then
	echo "lint-canary: FAIL: go vet did not report lock by value inside zz_canary_atomiccopy.go" >&2
	cat "$vetout" >&2
	exit 1
fi
echo "lint-canary: PASS (dettaint sink, wall-clock and float-order rules, goroutineleak, hotalloc, failpoint and vet copylocks all fire)"
