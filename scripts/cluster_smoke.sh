#!/bin/sh
# cluster_smoke.sh — 3-node sweep-fabric smoke over real processes
# (make cluster-smoke).
#
# Boots three emcserve nodes (a, b, c; b and c bootstrap membership with
# -join a), waits for the member tables to converge, then verifies the
# fabric contract end to end:
#   1. the same configuration submitted to two different nodes returns
#      byte-identical result JSON (consistent-hash routing + peer fetch),
#   2. a sweep stays live through a SIGKILL of one node mid-flight: every
#      job submitted before the kill reaches done on the survivors,
#   3. post-kill resubmits of the same sweep to a *different* entry node
#      are served byte-identical (no lost, duplicated, or torn results).
set -eu

GO="${GO:-go}"
dir=.smoke-cluster
pid_a=""
pid_b=""
pid_c=""
rm -rf "$dir"
mkdir -p "$dir"
trap 'rm -rf "$dir"; for p in $pid_a $pid_b $pid_c; do kill -9 "$p" 2>/dev/null || true; done' EXIT

"$GO" build -o "$dir/emcserve" ./cmd/emcserve
"$GO" build -o "$dir/emcctl" ./cmd/emcctl

boot() {
    # $1: node id, $2: log file, $3: -join URL ("" for the first node).
    # Sets $bootpid and $bootserver.
    "$dir/emcserve" -addr 127.0.0.1:0 -workers 2 -node-id "$1" \
        -heartbeat 100ms -suspect-after 500ms -join "$3" \
        >"$2" 2>"$2.err" &
    bootpid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|.*listening on http://\([0-9.:]*\).*|\1|p' "$2" 2>/dev/null | head -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "cluster-smoke: node $1 address never appeared" >&2
        cat "$2" "$2.err" >&2 || true
        exit 1
    fi
    bootserver="http://$addr"
}

boot a "$dir/a.out" ""
pid_a=$bootpid; srv_a=$bootserver
boot b "$dir/b.out" "$srv_a"
pid_b=$bootpid; srv_b=$bootserver
boot c "$dir/c.out" "$srv_a"
pid_c=$bootpid; srv_c=$bootserver

# Membership convergence: every node's stats must list all three rows.
for srv in "$srv_a" "$srv_b" "$srv_c"; do
    ok=0
    for _ in $(seq 1 100); do
        n=$("$dir/emcctl" -server "$srv" stats 2>/dev/null | grep -c '"node"' || true)
        if [ "${n:-0}" -eq 3 ]; then ok=1; break; fi
        sleep 0.1
    done
    if [ "$ok" -ne 1 ]; then
        echo "cluster-smoke: membership never converged on $srv" >&2
        "$dir/emcctl" -server "$srv" stats >&2 || true
        exit 1
    fi
done
echo "3-node membership: ok"

result_of() {
    # $1: server, $2..: submit args. Waits and writes the result JSON to stdout.
    srv=$1; shift
    out=$("$dir/emcctl" -server "$srv" submit "$@" -wait) || true
    echo "$out" | grep -q '"state": "done"' || {
        echo "cluster-smoke: job on $srv did not finish" >&2
        echo "$out" >&2
        exit 1
    }
    id=$(echo "$out" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -n 1)
    "$dir/emcctl" -server "$srv" result "$id"
}

# 1. Same configuration through two different entry nodes: the fabric must
#    route both to one owner and serve byte-identical bytes.
result_of "$srv_a" -bench mcf,sphinx3,soplex,libquantum -n 2000 -emc >"$dir/via_a.json"
result_of "$srv_b" -bench mcf,sphinx3,soplex,libquantum -n 2000 -emc >"$dir/via_b.json"
if ! cmp -s "$dir/via_a.json" "$dir/via_b.json"; then
    echo "cluster-smoke: same config served different bytes from a and b" >&2
    diff "$dir/via_a.json" "$dir/via_b.json" >&2 || true
    exit 1
fi
echo "cross-node byte-identical result: ok"

# 2. Fire a 4-seed sweep at node a without waiting, then SIGKILL node c
#    while it is in flight. Submission is content-addressed, so the waits
#    below coalesce onto the in-flight runs (or their cached results).
for seed in 11 12 13 14; do
    "$dir/emcctl" -server "$srv_a" submit \
        -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc >/dev/null
done
kill -9 "$pid_c"
wait "$pid_c" 2>/dev/null || true
pid_c=""
echo "SIGKILL node c mid-sweep: ok"

# 3. Every sweep job completes on the survivors, and resubmitting through
#    node b serves the same bytes node a does.
for seed in 11 12 13 14; do
    result_of "$srv_a" -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc \
        >"$dir/sweep_a_$seed.json"
    result_of "$srv_b" -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc \
        >"$dir/sweep_b_$seed.json"
    if ! cmp -s "$dir/sweep_a_$seed.json" "$dir/sweep_b_$seed.json"; then
        echo "cluster-smoke: seed $seed served different bytes from a and b after the kill" >&2
        diff "$dir/sweep_a_$seed.json" "$dir/sweep_b_$seed.json" >&2 || true
        exit 1
    fi
done
echo "sweep survived node death, byte-identical on survivors: ok"

for p in "$pid_a" "$pid_b"; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in "$pid_a" "$pid_b"; do
    wait "$p" 2>/dev/null || true
done
pid_a=""; pid_b=""
echo "cluster-smoke: ok"
