#!/bin/sh
# Self-test of scripts/lint_fma.sh, run by `make lint-fma` before the real
# check: on the fixture in scripts/testdata/fmaguard the guard must pass
# the float64()-wrapped moment loop and fail the unwrapped one, so a
# guard that silently stopped matching (a changed -S format, a renamed
# mnemonic) cannot report a clean build.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."
fixture=scripts/testdata/fmaguard
fails=0
check() {
    desc=$1 want=$2
    shift 2
    if sh scripts/lint_fma.sh "./$fixture" "$fixture/moments.go" "$@" > /dev/null 2>&1; then
        got=pass
    else
        got=fail
    fi
    if [ "$got" != "$want" ]; then
        echo "FAIL: $desc — lint-fma ${got}ed, want $want"
        fails=$((fails + 1))
    else
        echo "ok: $desc"
    fi
}

check "wrapped products pass" pass Wrapped
check "an unwrapped product fails" fail Unwrapped
check "one unwrapped function among several fails" fail Wrapped Unwrapped

[ "$fails" -eq 0 ] || { echo "$fails lint-fma self-test(s) failed"; exit 1; }
