#!/bin/sh
# Self-test of scripts/check_run_patterns.sh, run by `make test-scripts`
# before the real check: on a fixture Makefile the guard must pass a
# pattern whose alternatives all name tests, fail (status 1) one with an
# alternative that names none, and error (status 2) on a target without
# a -run line — so a guard that stopped matching cannot report clean.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fails=0
check() {
    desc=$1 want=$2 recipe=$3
    printf 'first:\n\t%s\nsecond:\n\techo done\n' "$recipe" > "$tmp/Makefile"
    status=0
    sh scripts/check_run_patterns.sh "$tmp/Makefile" first > "$tmp/out" 2>&1 || status=$?
    case $status in
    0) got=pass ;;
    1) got=fail ;;
    *) got=error ;;
    esac
    if [ "$got" != "$want" ]; then
        echo "FAIL: $desc — guard ${got}ed, want $want"
        sed 's/^/    /' "$tmp/out"
        fails=$((fails + 1))
    else
        echo "ok: $desc"
    fi
}

run="\$(GO) test -count=1 -run"
check "every alternative names a test" pass "$run 'TestSortBitIdentical|FuzzSort' ./internal/sortx"
check "an alternative naming no test fails" fail "$run 'TestSortBitIdentical|TestNoSuchTest' ./internal/sortx"
check "a target without a -run line errors" error "\$(GO) test ./internal/sortx"

[ "$fails" -eq 0 ] || { echo "$fails check-run-patterns self-test(s) failed"; exit 1; }
