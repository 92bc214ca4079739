#!/bin/sh
# Assembly guards: fail when the compiler's listing of a package breaks
# a property named functions rely on but no test run can see.
#
#   sh scripts/lint_asm.sh <check> <package> <file> <func>...
#   sh scripts/lint_asm.sh fma ./internal/stats internal/stats/desc.go centralMoments
#   sh scripts/lint_asm.sh branchless ./internal/sortx internal/sortx/select.go partitionBelow
#
# The script builds the package with -gcflags=-S (stock toolchain,
# cross-compiled where the check needs another architecture) and keeps
# every instruction whose source position falls between a named
# function's `func` line and its closing brace in <file>. Positions
# survive inlining, so an instruction in a caller that inlined the
# function is checked too.
#
# fma (arm64): no FMADDD, FMSUBD, FNMADDD or FNMSUBD. The Go spec lets a
#   compiler fuse x*y + z into one FMA, which skips the product's
#   rounding. Functions that must match a reference bit for bit wrap
#   each such product in float64(), which forbids the fusion. Go's amd64
#   back end never fuses, so an amd64 test run cannot see a missing
#   wrap; its arm64 back end does.
# branchless (amd64): no conditional jump on a source line that holds a
#   floating-point compare. Loops that advance an index on a comparison
#   of fresh data mispredict about half the time when the advance is a
#   branch; written as `inc := 0; if x < v { inc = 1 }; j += inc` the
#   compare feeds a SETcc instead. Tests and benchmarks see only the
#   speed, and a benchmark that repeats one input hides even that.
set -eu

[ $# -ge 4 ] || { echo "usage: $0 fma|branchless <package> <file> <func>..." >&2; exit 2; }
check=$1 pkg=$2 file=$3
shift 3
case $check in
fma) arch=arm64 ;;
branchless) arch=amd64 ;;
*) echo "lint-asm: unknown check $check (want fma or branchless)" >&2; exit 2 ;;
esac
[ -f "$file" ] || { echo "lint-$check: no file $file" >&2; exit 2; }

ranges=""
for fn in "$@"; do
    r=$(awk -v fn="$fn" '
        start == 0 && $0 ~ "^func (\\([^)]*\\) )?" fn "\\(" { start = NR; next }
        start > 0 && /^}/ { print start "-" NR; exit }
    ' "$file")
    [ -n "$r" ] || { echo "lint-$check: no func $fn in $file" >&2; exit 2; }
    ranges="$ranges $r"
done

asm=$(GOARCH=$arch go build -gcflags=-S -o /dev/null "$pkg" 2>&1) || {
    printf '%s\n' "$asm" >&2
    echo "lint-$check: $arch build of $pkg failed" >&2
    exit 2
}

base=$(basename "$file")
# Every instruction listed at a line of the named functions, as
# "<listing line>" with the position in field 3 and the mnemonic in
# field 4; none at all means the listing did not cover them, which must
# not pass as clean.
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
    echo "lint-$check: the $arch listing of $pkg has no instructions from $* ($file)" >&2
    exit 2
fi

case $check in
fma)
    found=$(printf '%s\n' "$inrange" | awk '$4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$/')
    if [ -n "$found" ]; then
        echo "lint-fma: the arm64 build of $pkg fuses products inside $* ($file):"
        printf '%s\n' "$found"
        echo "wrap each product in float64() so no compiler may fuse it"
        exit 1
    fi
    echo "lint-fma: no fused multiply-add in $* ($pkg, arm64)"
    ;;
branchless)
    # The positions of the floating-point compares, then every
    # conditional jump (any J but JMP) listed at one of them.
    found=$(printf '%s\n' "$inrange" | awk '
        $4 ~ /^U?COMIS[SD]$/ { cmp[$3] = 1 }
        $4 ~ /^J/ && $4 != "JMP" { jump[NR] = $0; at[NR] = $3 }
        END {
            for (i in jump) if (at[i] in cmp) print jump[i]
            for (p in cmp) seen = 1
            if (!seen) print "NOCMP"
        }
    ')
    if [ "$found" = NOCMP ]; then
        echo "lint-branchless: the amd64 listing of $pkg has no floating-point compare in $* ($file)" >&2
        exit 2
    fi
    if [ -n "$found" ]; then
        echo "lint-branchless: the amd64 build of $pkg branches on a comparison inside $* ($file):"
        printf '%s\n' "$found"
        echo "advance with inc := 0; if c { inc = 1 }; j += inc so the compare feeds a SETcc"
        exit 1
    fi
    echo "lint-branchless: no conditional jump on a comparison in $* ($pkg, amd64)"
    ;;
esac
