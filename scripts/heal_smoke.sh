#!/bin/sh
# heal_smoke.sh — self-healing fabric smoke over real processes
# (make heal-smoke).
#
# Boots a token-authenticated 3-node fabric where node c joins mid-sweep
# (an idle joiner that steals queued work), SIGKILLs c mid-flight of a
# second sweep, then
# restarts it over its original durable cache directory and verifies the
# self-healing contract end to end:
#   1. every job from both sweeps completes on the survivors with
#      byte-identical results regardless of entry node,
#   2. the restarted node converges, via anti-entropy digest exchange and
#      backfill alone, to a durable record set byte-for-byte identical to
#      the survivor's (same filenames, same frame bytes),
#   3. results served by the recovered node match the survivor's bytes.
set -eu

GO="${GO:-go}"
dir=.smoke-heal
token=heal-smoke-token
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
    # Sets $bootpid and $bootserver. Every node gets its own durable cache
    # directory, the shared cluster token, and a fast anti-entropy cadence.
    mkdir -p "$dir/cache-$1"
    "$dir/emcserve" -addr 127.0.0.1:0 -workers 2 -node-id "$1" \
        -cache-dir "$dir/cache-$1" -cluster-token "$token" \
        -heartbeat 100ms -suspect-after 500ms \
        -anti-entropy-interval 250ms -breaker-cooldown 500ms \
        -join "$3" \
        >"$2" 2>"$2.err" &
    bootpid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|.*listening on http://\([0-9.:]*\).*|\1|p' "$2" 2>/dev/null | head -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "heal-smoke: node $1 address never appeared" >&2
        cat "$2" "$2.err" >&2 || true
        exit 1
    fi
    bootserver="http://$addr"
}

wait_members() {
    # $1: server URL, $2: expected member-row count.
    ok=0
    for _ in $(seq 1 100); do
        n=$("$dir/emcctl" -server "$1" stats 2>/dev/null | grep -c '"node"' || true)
        if [ "${n:-0}" -eq "$2" ]; then ok=1; break; fi
        sleep 0.1
    done
    if [ "$ok" -ne 1 ]; then
        echo "heal-smoke: membership never reached $2 rows on $1" >&2
        "$dir/emcctl" -server "$1" stats >&2 || true
        exit 1
    fi
}

result_of() {
    # $1: server, $2..: submit args. Waits and writes the result JSON to stdout.
    srv=$1; shift
    out=$("$dir/emcctl" -server "$srv" submit "$@" -wait) || true
    echo "$out" | grep -q '"state": "done"' || {
        echo "heal-smoke: job on $srv did not finish" >&2
        echo "$out" >&2
        exit 1
    }
    id=$(echo "$out" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -n 1)
    "$dir/emcctl" -server "$srv" result "$id"
}

boot a "$dir/a.out" ""
pid_a=$bootpid; srv_a=$bootserver
boot b "$dir/b.out" "$srv_a"
pid_b=$bootpid; srv_b=$bootserver
wait_members "$srv_a" 2
echo "2-node authenticated fabric: ok"

# Sweep 1 fired at node a without waiting; node c joins while it is in
# flight and, idle, may steal queued work from a or b.
for seed in 31 32 33; do
    "$dir/emcctl" -server "$srv_a" submit \
        -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc >/dev/null
done
boot c "$dir/c.out" "$srv_a"
pid_c=$bootpid; srv_c=$bootserver
for srv in "$srv_a" "$srv_b" "$srv_c"; do
    wait_members "$srv" 3
done
echo "node c joined mid-sweep: ok"

for seed in 31 32 33; do
    result_of "$srv_a" -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc \
        >"$dir/sweep1_a_$seed.json"
done
echo "sweep 1 completed through the join: ok"

# Sweep 2 in flight when c is SIGKILLed: the survivors must finish every
# job and serve identical bytes from either entry node.
for seed in 34 35 36; do
    "$dir/emcctl" -server "$srv_a" submit \
        -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc >/dev/null
done
kill -9 "$pid_c"
wait "$pid_c" 2>/dev/null || true
pid_c=""
echo "SIGKILL node c mid-sweep: ok"

for seed in 34 35 36; do
    result_of "$srv_a" -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc \
        >"$dir/sweep2_a_$seed.json"
    result_of "$srv_b" -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc \
        >"$dir/sweep2_b_$seed.json"
    if ! cmp -s "$dir/sweep2_a_$seed.json" "$dir/sweep2_b_$seed.json"; then
        echo "heal-smoke: seed $seed served different bytes from a and b after the kill" >&2
        exit 1
    fi
done
echo "sweep 2 survived node death, byte-identical on survivors: ok"

# Restart c over its original durable cache directory. Anti-entropy must
# converge it to node a's record set: every record file node a holds shows
# up under node c with identical bytes (filenames are a deterministic
# function of the key, frames are deterministic encodings of deterministic
# results, so byte-for-byte equality is the contract, not a coincidence).
boot c "$dir/c2.out" "$srv_a"
pid_c=$bootpid; srv_c=$bootserver
wait_members "$srv_c" 3

converged=0
for _ in $(seq 1 150); do
    converged=1
    for f in "$dir"/cache-a/*; do
        [ -f "$f" ] || continue
        if ! cmp -s "$f" "$dir/cache-c/$(basename "$f")" 2>/dev/null; then
            converged=0
            break
        fi
    done
    [ "$converged" -eq 1 ] && break
    sleep 0.2
done
if [ "$converged" -ne 1 ]; then
    echo "heal-smoke: durable cache never converged on the restarted node" >&2
    ls -l "$dir/cache-a" "$dir/cache-c" >&2 || true
    exit 1
fi
echo "restarted node converged byte-for-byte via anti-entropy: ok"

# The recovered node serves the same bytes the survivor does.
for seed in 31 34; do
    result_of "$srv_c" -bench mcf,mcf,mcf,mcf -n 50000 -seed "$seed" -emc \
        >"$dir/recovered_c_$seed.json"
    ref="$dir/sweep1_a_$seed.json"
    [ "$seed" -ge 34 ] && ref="$dir/sweep2_a_$seed.json"
    if ! cmp -s "$ref" "$dir/recovered_c_$seed.json"; then
        echo "heal-smoke: recovered node served different bytes for seed $seed" >&2
        exit 1
    fi
done
echo "recovered node serves byte-identical results: ok"

for p in "$pid_a" "$pid_b" "$pid_c"; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in "$pid_a" "$pid_b" "$pid_c"; do
    wait "$p" 2>/dev/null || true
done
pid_a=""; pid_b=""; pid_c=""
echo "heal-smoke: ok"
