#!/usr/bin/env bash
# A spec line naming a backend no registry knows (here `remote`) fails
# its own job at wait(), like any other unknown backend: the other
# lines are still served, stderr names the backend once, and the exit
# code is 1.  Served locally and through `--shards` over two `--shard`
# workers alike, the failed job is named by its 1-based position among
# the spec lines.
# Usage: cli_serve_unknown_backend.sh <hammer_cli>
set -euo pipefail

cli=$1

workdir=$(mktemp -d)
pids=()
trap 'kill "${pids[@]}" 2> /dev/null || true; wait; rm -rf "$workdir"' EXIT

printf 'ghz:3,channel,100,5\nbv:5,remote,256,9\n' > "$workdir/mixed.specs"
printf 'ghz:3,channel,100,5\n' > "$workdir/good.specs"
"$cli" --serve "$workdir/good.specs" --canonical \
    > "$workdir/good.out" 2> /dev/null

for i in 0 1; do
    "$cli" --shard --listen "unix:$workdir/s$i.sock" 2> /dev/null &
    pids+=($!)
done
for i in 0 1; do
    for _ in $(seq 1 100); do
        [ -S "$workdir/s$i.sock" ] && break
        sleep 0.05
    done
done

for leg in local sharded; do
    args=()
    [ "$leg" = sharded ] &&
        args=(--shards "unix:$workdir/s0.sock,unix:$workdir/s1.sock")
    status=0
    "$cli" --serve "$workdir/mixed.specs" --canonical "${args[@]}" \
        > "$workdir/$leg.out" 2> "$workdir/$leg.err" || status=$?

    fail() {
        echo "FAIL ($leg): $1" >&2
        cat "$workdir/$leg.err" >&2
        exit 1
    }
    [ "$status" -eq 1 ] || fail "exit code $status, expected 1"
    [ -s "$workdir/good.out" ] || fail "the good line alone served nothing"
    cmp -s "$workdir/good.out" "$workdir/$leg.out" ||
        fail "stdout is not exactly the good line's result"
    jobs=$(grep -c -- "--serve job " "$workdir/$leg.err" || true)
    errors=$(grep -c -- "--serve job 2: .*unknown backend 'remote'" \
        "$workdir/$leg.err" || true)
    [ "$jobs" -eq 1 ] && [ "$errors" -eq 1 ] ||
        fail "expected exactly one failed job, job 2 (backend 'remote')"
done

echo "PASS: an unknown backend fails only its own line, local and sharded"
