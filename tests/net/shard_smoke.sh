#!/usr/bin/env bash
# Multi-process shard smoke: two real `hammer_cli --shard` workers on
# Unix-domain sockets, a `--serve --shards` router over both, and a
# byte-for-byte diff against the single-process `--serve --canonical`
# run.  The shards run the scalar kernel tier while the local run keeps
# the host's best, so the diff also checks that no Result (nor the plan
# `auto` picks) depends on the tier, on HAMMER's transform path too:
# at least one served line must have taken it.
# Usage: shard_smoke.sh <hammer_cli> <specs-file>
set -euo pipefail

cli=$1
specs=$2

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2> /dev/null || true
    done
    for pid in "${pids[@]:-}"; do
        wait "$pid" 2> /dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

addresses=()
for i in 0 1; do
    sock="$workdir/shard$i.sock"
    HAMMER_KERNELS=scalar "$cli" --shard --listen "unix:$sock" \
        2> "$workdir/shard$i.log" &
    pids+=($!)
    addresses+=("unix:$sock")
done

# Wait (bounded) for both listeners to come up.
for sock in "$workdir"/shard0.sock "$workdir"/shard1.sock; do
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && break
        sleep 0.05
    done
    [ -S "$sock" ] || {
        echo "FAIL: $sock never appeared" >&2
        cat "$workdir"/shard*.log >&2 || true
        exit 1
    }
done

"$cli" --serve "$specs" --canonical \
    --shards "${addresses[0]},${addresses[1]}" \
    > "$workdir/sharded.out" 2> "$workdir/router.log"
"$cli" --serve "$specs" --canonical \
    > "$workdir/local.out" 2> "$workdir/local.log"

if ! diff -u "$workdir/local.out" "$workdir/sharded.out"; then
    echo "FAIL: sharded results differ from the local run" >&2
    cat "$workdir/router.log" >&2
    exit 1
fi
grep -q '"path":"transform"' "$workdir/local.out" || {
    echo "FAIL: no served line took HAMMER's transform path" >&2
    exit 1
}

# Stop the shards; each must emit its service_stats JSON line on exit.
for pid in "${pids[@]}"; do
    kill -TERM "$pid"
done
for pid in "${pids[@]}"; do
    wait "$pid" || {
        echo "FAIL: a shard exited non-zero" >&2
        cat "$workdir"/shard*.log >&2
        exit 1
    }
done
pids=()

for i in 0 1; do
    grep -q '"type":"service_stats"' "$workdir/shard$i.log" || {
        echo "FAIL: shard$i emitted no service_stats line" >&2
        cat "$workdir/shard$i.log" >&2
        exit 1
    }
done
grep -q '"type":"service_stats"' "$workdir/local.log" || {
    echo "FAIL: --serve emitted no service_stats line" >&2
    cat "$workdir/local.log" >&2
    exit 1
}

echo "PASS: sharded output byte-identical to local --serve"
