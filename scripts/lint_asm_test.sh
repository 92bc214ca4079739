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
#               its index advanced by a flag and by an if.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 fma|branchless" >&2; exit 2; }
kind=$1
here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."
case $kind in
fma) fixture=scripts/testdata/fmaguard file=moments.go good=Wrapped bad=Unwrapped ;;
branchless) fixture=scripts/testdata/branchguard file=partition.go good=Branchless bad=Branchy ;;
*) echo "lint-asm self-test: unknown check $kind" >&2; exit 2 ;;
esac
fails=0
check() {
    desc=$1 want=$2
    shift 2
    if sh scripts/lint_asm.sh "$kind" "./$fixture" "$fixture/$file" "$@" > /dev/null 2>&1; then
        got=pass
    else
        got=fail
    fi
    if [ "$got" != "$want" ]; then
        echo "FAIL: $desc — lint-$kind ${got}ed, want $want"
        fails=$((fails + 1))
    else
        echo "ok: $desc"
    fi
}

check "$good passes" pass "$good"
check "$bad fails" fail "$bad"
check "$bad among several functions fails" fail "$good" "$bad"

[ "$fails" -eq 0 ] || { echo "$fails lint-$kind self-test(s) failed"; exit 1; }
