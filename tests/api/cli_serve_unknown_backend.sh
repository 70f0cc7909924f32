#!/usr/bin/env bash
# A spec line naming a backend no registry knows (here `remote`) fails
# its own job at wait(), like any other unknown backend: the other
# lines are still served, stderr names the backend once, and the exit
# code is 1.
# Usage: cli_serve_unknown_backend.sh <hammer_cli>
set -euo pipefail

cli=$1

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

printf 'ghz:3,channel,100,5\nbv:5,remote,256,9\n' > "$workdir/mixed.specs"
printf 'ghz:3,channel,100,5\n' > "$workdir/good.specs"

status=0
"$cli" --serve "$workdir/mixed.specs" --canonical \
    > "$workdir/mixed.out" 2> "$workdir/mixed.err" || status=$?
"$cli" --serve "$workdir/good.specs" --canonical \
    > "$workdir/good.out" 2> /dev/null

fail() {
    echo "FAIL: $1" >&2
    cat "$workdir/mixed.err" >&2
    exit 1
}

[ "$status" -eq 1 ] || fail "exit code $status, expected 1"
[ -s "$workdir/good.out" ] || fail "the good line alone served nothing"
cmp -s "$workdir/good.out" "$workdir/mixed.out" ||
    fail "stdout is not exactly the good line's result"
errors=$(grep -c -- "--serve job 2: unknown backend 'remote'" \
    "$workdir/mixed.err" || true)
[ "$errors" -eq 1 ] ||
    fail "expected one 'unknown backend' line for job 2, got $errors"

echo "PASS: an unknown backend fails only its own line"
