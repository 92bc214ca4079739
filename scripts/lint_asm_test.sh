#!/bin/sh
# Self-test of scripts/lint_asm.sh, run by `make lint-fma` and `make
# lint-branchless` before the real check:
#
#   sh scripts/lint_asm_test.sh fma|branchless
#
# On the check's fixture the guard must pass the good loop and fail the
# bad one, so a guard that silently stopped matching (a changed -S
# format, a renamed mnemonic) cannot report a clean build:
#   fma         scripts/testdata/fmaguard — the moment loop with and
#               without its float64() wraps;
#   branchless  scripts/testdata/branchguard — the partition loop with
#               its index advanced by a flag and by an if (a float
#               compare), and the keyed merge with its take selected by
#               a flag and min and by an if (an integer compare).
set -eu

[ $# -eq 1 ] || { echo "usage: $0 fma|branchless" >&2; exit 2; }
kind=$1
here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."
# Each case is "<file> <good func> <bad func>" in the fixture.
case $kind in
fma) fixture=scripts/testdata/fmaguard cases="moments.go Wrapped Unwrapped" ;;
branchless) fixture=scripts/testdata/branchguard cases="partition.go Branchless Branchy merge.go Merge BranchyMerge" ;;
*) echo "lint-asm self-test: unknown check $kind" >&2; exit 2 ;;
esac
fails=0
check() {
    desc=$1 want=$2
    shift 2
    # A guard that fails must fail its check (status 1), not on an
    # error such as a missing function or compare (status 2).
    status=0
    sh scripts/lint_asm.sh "$kind" "./$fixture" "$fixture/$file" "$@" > /dev/null 2>&1 || status=$?
    case $status in
    0) got=pass ;;
    1) got=fail ;;
    *) got=error ;;
    esac
    if [ "$got" != "$want" ]; then
        echo "FAIL: $desc — lint-$kind ${got}ed, want $want"
        fails=$((fails + 1))
    else
        echo "ok: $desc"
    fi
}

set -- $cases
while [ $# -ge 3 ]; do
    file=$1 good=$2 bad=$3
    shift 3
    check "$good passes" pass "$good"
    check "$bad fails" fail "$bad"
    check "$bad among several functions fails" fail "$good" "$bad"
done

[ "$fails" -eq 0 ] || { echo "$fails lint-$kind self-test(s) failed"; exit 1; }
