#!/bin/sh
# Checks that every `|` alternative of every -run pattern in a Makefile
# target's recipe matches at least one test, fuzz target or example
# (what -run selects) that `go test -list` finds in the packages of that
# recipe line. A -run pattern that matches nothing passes silently, so a
# renamed test would otherwise drop out of the target unnoticed.
#
#   sh scripts/check_run_patterns.sh [MAKEFILE [TARGET]]
#
# Defaults: Makefile and test-bitident-v3. Exits 1 naming each
# alternative that matches nothing, 2 when the target has no -run line.
set -eu

mk=${1:-Makefile}
target=${2:-test-bitident-v3}
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The target's recipe: the tab-indented lines after its rule line.
awk -v t="$target" '
    index($0, t ":") == 1 { r = 1; next }
    r && /^\t/ { print; next }
    r { exit }
' "$mk" | grep -e "-run '" > "$tmp/lines" || {
    echo "check-run-patterns: no -run line in target $target of $mk" >&2
    exit 2
}

missing=0
while IFS= read -r line; do
    pattern=$(printf '%s\n' "$line" | sed "s/.*-run '\([^']*\)'.*/\1/")
    pkgs=$(printf '%s\n' "$line" | tr ' \t' '\n\n' | grep '^\./' || true)
    [ -n "$pkgs" ] || { echo "check-run-patterns: no package in: $line" >&2; exit 2; }
    # shellcheck disable=SC2086 # one argument per package
    "$GO" test -list '.' $pkgs | grep -E '^(Test|Fuzz|Example)' > "$tmp/list" || true
    alts=$(printf '%s\n' "$pattern" | tr '|' '\n')
    set -f
    for alt in $alts; do
        if ! grep -Eq -- "$alt" "$tmp/list"; then
            echo "FAIL: -run alternative '$alt' matches no test in" $pkgs
            missing=$((missing + 1))
        fi
    done
    set +f
done < "$tmp/lines"

if [ "$missing" -gt 0 ]; then
    echo "$missing -run alternative(s) of $target match nothing"
    exit 1
fi
echo "ok: every -run alternative of $target matches a test"
