#!/bin/sh
# Self-test of scripts/check_cli_flags.sh, run by `make test-scripts`:
# on fixture Markdown the check must pass flags every command lists,
# fail (status 1) on a flag a command does not list, in a fenced
# `go run` line, a continued one or an inline span, and error (status 2)
# on a missing file — so a check that stopped reading cannot report
# clean.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
cd "$here/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fails=0
check() {
    desc=$1 want=$2 doc=$3
    printf '%s\n' "$doc" > "$tmp/doc.md"
    status=0
    sh scripts/check_cli_flags.sh "$tmp/doc.md" > "$tmp/out" 2>&1 || status=$?
    case $status in
    0) got=pass ;;
    1) got=fail ;;
    *) got=error ;;
    esac
    if [ "$got" != "$want" ]; then
        echo "FAIL: $desc — check ${got}ed, want $want"
        sed 's/^/    /' "$tmp/out"
        fails=$((fails + 1))
    else
        echo "ok: $desc"
    fi
}

fence='```'
check "listed flags pass" pass "$fence
go run ./cmd/repro -geometry quick -exp table1   # -quick in a comment
go run ./cmd/repro -exp campaign -workers 1 | sort -k 2
$fence
Run \`earlybird -app minife -geometry=quick\` or \`go run ./cmd/analyze -in fe.json\`."
check "an unlisted flag in a fenced line fails" fail "$fence
go run ./cmd/repro -quick -exp table1
$fence"
check "an unlisted flag on a continued line fails" fail "$fence
go run ./cmd/threadtime -app minife \\
  -trials 2 -o fe.json
$fence"
check "an unlisted flag in an inline span fails" fail "See \`earlybird -app minife -trials 2\`."
status=0
sh scripts/check_cli_flags.sh "$tmp/no-such.md" > /dev/null 2>&1 || status=$?
if [ "$status" -eq 2 ]; then
    echo "ok: a missing file errors"
else
    echo "FAIL: a missing file gave status $status, want 2"
    fails=$((fails + 1))
fi

[ "$fails" -eq 0 ] || { echo "$fails check-cli-flags self-test(s) failed"; exit 1; }
