#!/bin/sh
# trace_smoke.sh — end-to-end observability smoke (make trace-smoke).
#
# Runs a tiny traced workload with the debug HTTP server up, then:
#   1. validates the Chrome trace_event JSON with cmd/tracecheck,
#   2. scrapes /metrics while the server lingers and checks the exposition's
#      structure with tracecheck -metrics-url (plus a curl grep when curl
#      is available),
#   3. checks the interval counter log parses.
set -eu

GO="${GO:-go}"
dir=.smoke
rm -rf "$dir"
mkdir -p "$dir"
trap 'rm -rf "$dir"' EXIT

"$GO" build -o "$dir/emcsim" ./cmd/emcsim
"$GO" build -o "$dir/tracecheck" ./cmd/tracecheck

# A tiny workload: long enough to produce misses on both the core and EMC
# paths, short enough for CI. The linger keeps /metrics up after the run so
# the scrape below cannot race the simulation's end.
"$dir/emcsim" -bench mcf,sphinx3,soplex,libquantum -emc -n 4000 \
    -trace "$dir/trace.json" -trace-sample 1 \
    -counters "$dir/counters.json" -counters-interval 5000 \
    -http 127.0.0.1:0 -http-linger 20s \
    >"$dir/run.out" 2>"$dir/run.err" &
simpid=$!

# The bound address is printed as "debug server listening on http://ADDR ...".
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|.*listening on http://\([0-9.:]*\).*|\1|p' "$dir/run.out" 2>/dev/null | head -n 1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "trace-smoke: debug server address never appeared" >&2
    cat "$dir/run.out" "$dir/run.err" >&2 || true
    kill "$simpid" 2>/dev/null || true
    exit 1
fi

# Wait for the trace file to be written (the run is fast; the linger is not).
ok=""
for _ in $(seq 1 200); do
    if grep -q "wrote $dir/trace.json" "$dir/run.err" 2>/dev/null; then
        ok=1
        break
    fi
    sleep 0.1
done
if [ -z "$ok" ]; then
    echo "trace-smoke: simulation never wrote the trace file" >&2
    cat "$dir/run.out" "$dir/run.err" >&2 || true
    kill "$simpid" 2>/dev/null || true
    exit 1
fi

status=0
if command -v curl >/dev/null 2>&1; then
    curl -sf "http://$addr/metrics" >"$dir/metrics.txt" || status=$?
    if [ "$status" -eq 0 ] && ! grep -q '^emcsim_' "$dir/metrics.txt"; then
        echo "trace-smoke: /metrics has no emcsim_ gauges" >&2
        status=1
    fi
    [ "$status" -eq 0 ] && echo "metrics: ok ($(grep -c '^emcsim_' "$dir/metrics.txt") gauge lines)"
    [ "$status" -eq 0 ] && "$dir/tracecheck" -metrics-url "http://$addr/metrics" "$dir/trace.json" || status=1
else
    "$dir/tracecheck" -metrics-url "http://$addr/metrics" "$dir/trace.json" || status=1
fi

# The counter log must be valid JSON with at least one sample.
if [ "$status" -eq 0 ]; then
    "$dir/tracecheck" -counters "$dir/counters.json" "$dir/trace.json" >/dev/null || status=1
    echo "counters: ok"
fi

kill "$simpid" 2>/dev/null || true
wait "$simpid" 2>/dev/null || true

if [ "$status" -ne 0 ]; then
    echo "trace-smoke: FAILED" >&2
    exit 1
fi
echo "trace-smoke: ok"
