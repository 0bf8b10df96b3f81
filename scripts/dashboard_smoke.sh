#!/bin/sh
# dashboard_smoke.sh — observability end-to-end smoke (make dashboard-smoke).
#
# Boots emcserve with the flight recorder armed and a oneshot prerun
# failpoint (the first attempt of the first job panics, its retry succeeds),
# runs a small sweep, then asserts the whole span pipeline end to end:
#   1. /api/v1/stats returns the per-shard breakdown,
#   2. emcctl top renders a live dashboard frame from the NDJSON stream,
#   3. the induced panic produced a flight-recorder dump that round-trips
#      tracecheck -flight (CRC + exact-sum phase verification),
#   4. /api/v1/trace exports a Chrome trace that passes tracecheck, and the
#      service /metrics exposition passes tracecheck -metrics-url.
set -eu

GO="${GO:-go}"
dir=.smoke-dash
srvpid=""
rm -rf "$dir"
mkdir -p "$dir/flight"
trap 'rm -rf "$dir"; [ -n "$srvpid" ] && kill "$srvpid" 2>/dev/null || true' EXIT

"$GO" build -o "$dir/emcserve" ./cmd/emcserve
"$GO" build -o "$dir/emcctl" ./cmd/emcctl
"$GO" build -o "$dir/tracecheck" ./cmd/tracecheck

EMCSIM_FAILPOINTS='service/worker.prerun=oneshot' \
    "$dir/emcserve" -addr 127.0.0.1:0 -workers 2 \
    -flight-dir "$dir/flight" \
    >"$dir/serve.out" 2>"$dir/serve.err" &
srvpid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|.*listening on http://\([0-9.:]*\).*|\1|p' "$dir/serve.out" 2>/dev/null | head -n 1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "dashboard-smoke: server address never appeared" >&2
    cat "$dir/serve.out" "$dir/serve.err" >&2 || true
    exit 1
fi
server="http://$addr"

# A small sweep: the first job's first attempt hits the oneshot panic (one
# flight dump) and retries to completion; the second runs clean.
"$dir/emcctl" -server "$server" submit \
    -bench mcf,sphinx3,soplex,libquantum -n 2000 -emc -wait >"$dir/job1.json"
grep -q '"state": "done"' "$dir/job1.json" || {
    echo "dashboard-smoke: job1 did not finish (retry after the failpoint panic should have)" >&2
    cat "$dir/job1.json" "$dir/serve.err" >&2 || true
    exit 1
}
"$dir/emcctl" -server "$server" submit \
    -bench mcf,sphinx3,soplex,libquantum -n 2000 -wait >"$dir/job2.json"
grep -q '"state": "done"' "$dir/job2.json" || {
    echo "dashboard-smoke: job2 did not finish" >&2
    cat "$dir/job2.json" >&2
    exit 1
}
echo "sweep: ok (2 jobs done, 1 induced panic absorbed)"

# 1. Stats carry the per-shard breakdown and the dump counter.
"$dir/emcctl" -server "$server" stats >"$dir/stats.json"
grep -q '"shards"' "$dir/stats.json" || {
    echo "dashboard-smoke: /api/v1/stats has no per-shard breakdown" >&2
    cat "$dir/stats.json" >&2
    exit 1
}
dumps=$(sed -n 's/.*"flightDumps": \([0-9]*\).*/\1/p' "$dir/stats.json" | head -n 1)
if [ "${dumps:-0}" -lt 1 ] 2>/dev/null; then
    echo "dashboard-smoke: no flight dump counted (got '$dumps')" >&2
    cat "$dir/stats.json" >&2
    exit 1
fi
echo "stats: ok ($dumps flight dump(s) counted)"

# 2. The live dashboard renders from the NDJSON stats stream.
"$dir/emcctl" -server "$server" top -frames 2 -interval 200ms -plain >"$dir/top.out"
grep -q "emcserve top" "$dir/top.out" || {
    echo "dashboard-smoke: emcctl top rendered no header" >&2
    cat "$dir/top.out" >&2
    exit 1
}
grep -q "SHARD" "$dir/top.out" || {
    echo "dashboard-smoke: emcctl top rendered no shard table" >&2
    cat "$dir/top.out" >&2
    exit 1
}
echo "emcctl top: ok"

# 3. The induced panic's flight dump round-trips tracecheck -flight.
set -- "$dir"/flight/*-panic-*.emfr
if [ ! -f "$1" ]; then
    echo "dashboard-smoke: no panic flight dump in $dir/flight" >&2
    ls -la "$dir/flight" >&2 || true
    exit 1
fi
"$dir/tracecheck" -flight "$@" || {
    echo "dashboard-smoke: flight dump failed verification" >&2
    exit 1
}
echo "flight recorder: ok"

# 4. The span trace export passes the Chrome schema gate, and the service
#    /metrics exposition passes the structure check.
"$dir/emcctl" -server "$server" trace >"$dir/trace.json"
"$dir/tracecheck" -metrics-url "$server/metrics" "$dir/trace.json" || {
    echo "dashboard-smoke: span trace export or /metrics failed tracecheck" >&2
    exit 1
}
echo "trace export + metrics: ok"

kill -TERM "$srvpid"
for _ in $(seq 1 100); do
    kill -0 "$srvpid" 2>/dev/null || break
    sleep 0.1
done
wait "$srvpid" 2>/dev/null || true
echo "dashboard-smoke: ok"
