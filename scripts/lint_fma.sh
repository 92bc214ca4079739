#!/bin/sh
# FMA guard: fails when the arm64 build of a package fuses a product into
# a fused multiply-add inside the named functions.
#
#   sh scripts/lint_fma.sh <package> <file> <func>...
#   sh scripts/lint_fma.sh ./internal/stats internal/stats/desc.go centralMoments
#
# The Go spec lets a compiler fuse x*y + z into one FMA, which skips the
# product's rounding. Functions that must match a reference bit for bit
# wrap each such product in float64(), which forbids the fusion. Go's
# amd64 back end never fuses, so an amd64 test run cannot see a missing
# wrap; its arm64 back end does. This script cross-compiles the package
# for arm64 with -gcflags=-S (stock toolchain, no arm64 machine needed)
# and reports every FMADDD, FMSUBD, FNMADDD or FNMSUBD whose source
# position falls between a named function's `func` line and its closing
# brace in <file>. Positions survive inlining, so a fused instruction in
# a caller that inlined the function is caught too.
set -eu

[ $# -ge 3 ] || { echo "usage: $0 <package> <file> <func>..." >&2; exit 2; }
pkg=$1 file=$2
shift 2
[ -f "$file" ] || { echo "lint-fma: no file $file" >&2; exit 2; }

ranges=""
for fn in "$@"; do
    r=$(awk -v fn="$fn" '
        start == 0 && $0 ~ "^func (\\([^)]*\\) )?" fn "\\(" { start = NR; next }
        start > 0 && /^}/ { print start "-" NR; exit }
    ' "$file")
    [ -n "$r" ] || { echo "lint-fma: no func $fn in $file" >&2; exit 2; }
    ranges="$ranges $r"
done

asm=$(GOARCH=arm64 go build -gcflags=-S -o /dev/null "$pkg" 2>&1) || {
    printf '%s\n' "$asm" >&2
    echo "lint-fma: arm64 build of $pkg failed" >&2
    exit 2
}

base=$(basename "$file")
# Every instruction listed at a line of the named functions, as
# "<mnemonic> <listing line>"; none at all means the listing did not cover
# them, which must not pass as clean.
inrange=$(printf '%s\n' "$asm" | awk -v base="$base" -v ranges="$ranges" '
    BEGIN { n = split(ranges, rs, " ") }
    $3 ~ /^\(.*:[0-9]+\)$/ {
        pos = $3
        gsub(/[()]/, "", pos)
        k = split(pos, parts, ":")
        path = parts[k - 1]
        if (path != base && substr(path, length(path) - length(base)) != "/" base) next
        for (i = 1; i <= n; i++) {
            split(rs[i], lohi, "-")
            if (parts[k] + 0 >= lohi[1] + 0 && parts[k] + 0 <= lohi[2] + 0) { print; break }
        }
    }
')
if [ -z "$inrange" ]; then
    echo "lint-fma: the arm64 listing of $pkg has no instructions from $* ($file)" >&2
    exit 2
fi
found=$(printf '%s\n' "$inrange" | awk '$4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$/')
if [ -n "$found" ]; then
    echo "lint-fma: the arm64 build of $pkg fuses products inside $* ($file):"
    printf '%s\n' "$found"
    echo "wrap each product in float64() so no compiler may fuse it"
    exit 1
fi
echo "lint-fma: no fused multiply-add in $* ($pkg, arm64)"
