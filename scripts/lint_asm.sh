#!/bin/sh
# Assembly guards: fail when the compiler's listing of a package breaks
# a property named functions rely on but no test run can see.
#
#   sh scripts/lint_asm.sh <check> <package> <file> <func>...
#   sh scripts/lint_asm.sh fma ./internal/stats internal/stats/desc.go centralMoments
#   sh scripts/lint_asm.sh branchless ./internal/sortx internal/sortx/select.go partitionBelow
#   sh scripts/lint_asm.sh branchless ./internal/sortx internal/sortx/networks.go network8 network16
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
#   compare, floating-point (UCOMISD) or integer (CMPQ). Loops that
#   advance an index on a comparison of fresh data mispredict about half
#   the time when the advance is a branch; written as
#   `inc := 0; if x < v { inc = 1 }; j += inc` the compare feeds a SETcc
#   instead, and an integer min or max compiles to a CMOV. Two kinds of
#   jump on a compare's line are control, not data, and pass: the exit
#   test of a loop on a `for` line, and a jump one of whose two ways
#   runs straight into a runtime call: a bounds check (panicIndex), the
#   stack check (morestack) or copy's overlap test (memmove). Tests and
#   benchmarks see only the speed, and a benchmark that repeats one
#   input hides even that.
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
# "<function> <listing line>": the function the listing puts it in (the
# caller, where the named function was inlined), then its pc in field
# 3, its position in field 4, its mnemonic in field 5 and its first
# operand in field 6. None at all means the listing did not cover them,
# which must not pass as clean.
inrange=$(printf '%s\n' "$asm" | awk -v base="$base" -v ranges="$ranges" '
    BEGIN { n = split(ranges, rs, " ") }
    $2 == "STEXT" { fn = $1; next }
    $3 ~ /^\(.*:[0-9]+\)$/ {
        pos = $3
        gsub(/[()]/, "", pos)
        k = split(pos, parts, ":")
        path = parts[k - 1]
        if (path != base && substr(path, length(path) - length(base)) != "/" base) next
        for (i = 1; i <= n; i++) {
            split(rs[i], lohi, "-")
            if (parts[k] + 0 >= lohi[1] + 0 && parts[k] + 0 <= lohi[2] + 0) { print fn " " $0; break }
        }
    }
')
if [ -z "$inrange" ]; then
    echo "lint-$check: the $arch listing of $pkg has no instructions from $* ($file)" >&2
    exit 2
fi

case $check in
fma)
    found=$(printf '%s\n' "$inrange" | awk '$5 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$/')
    if [ -n "$found" ]; then
        echo "lint-fma: the arm64 build of $pkg fuses products inside $* ($file):"
        printf '%s\n' "$found"
        echo "wrap each product in float64() so no compiler may fuse it"
        exit 1
    fi
    echo "lint-fma: no fused multiply-add in $* ($pkg, arm64)"
    ;;
branchless)
    # The lines of the named functions that hold a compare, then every
    # conditional jump (any J but JMP) at one of them, unless it is loop
    # control on a `for` line or guards a runtime call. Jump targets
    # are pcs within a function, so the whole listing ("A" lines) is
    # indexed by function and pc to follow both ways of each jump.
    found=$( { printf '%s\n' "$inrange" | sed 's/^/R /'; printf '%s\n' "$asm" | sed 's/^/A /'; } | awk -v src="$file" '
        BEGIN {
            while ((getline l < src) > 0) if (l ~ /^[ \t]*for[ \t{]/) forline[++ln] = 1; else ++ln
        }
        $1 == "R" {
            if ($6 ~ /^(U?COMIS[SD]|CMP[BWLQ]?)$/) { cmp[$2, $5] = 1; ncmp++ }
            if ($6 ~ /^J/ && $6 != "JMP") {
                line = $5; sub(/^.*:/, "", line); sub(/\)$/, "", line)
                if (!(line + 0 in forline)) { nj++; jf[nj] = $2; jpc[nj] = $4 + 0; jpos[nj] = $5; jto[nj] = $7 + 0; jtext[nj] = $0 }
            }
            next
        }
        $3 == "STEXT" { fn = $2; next }
        $4 ~ /^\(.*:[0-9]+\)$/ {
            n[fn]++; op[fn, n[fn]] = $5; arg[fn, n[fn]] = $6
            if (!((fn, $3 + 0) in at)) at[fn, $3 + 0] = n[fn]
        }
        # toRuntime(f, i) reports whether the code of f from its
        # instruction i on reaches a runtime call before any other
        # branch, following unconditional jumps.
        function toRuntime(f, i,    hops, m) {
            for (; i <= n[f]; i++) {
                m = op[f, i]
                if (m == "CALL") return arg[f, i] ~ /^runtime\./
                if (m == "JMP" && hops < 8 && (f, arg[f, i] + 0) in at) { i = at[f, arg[f, i] + 0] - 1; hops++; continue }
                if (m ~ /^J/ || m == "RET") return 0
            }
            return 0
        }
        END {
            for (j = 1; j <= nj; j++) {
                f = jf[j]
                if (!((f, jpos[j]) in cmp)) continue
                # Past the jump itself (the first J at its pc) is the
                # fall-through way; its operand is the taken one.
                for (i = at[f, jpc[j]]; i <= n[f] && op[f, i] !~ /^J/; i++) {}
                if (toRuntime(f, i + 1) || ((f, jto[j]) in at && toRuntime(f, at[f, jto[j]]))) continue
                t = jtext[j]; sub(/^R [^ ]* /, "", t); print t
            }
            if (!ncmp) print "NOCMP"
        }
    ')
    if [ "$found" = NOCMP ]; then
        echo "lint-branchless: the amd64 listing of $pkg has no compare in $* ($file)" >&2
        exit 2
    fi
    if [ -n "$found" ]; then
        echo "lint-branchless: the amd64 build of $pkg branches on a comparison inside $* ($file):"
        printf '%s\n' "$found"
        echo "advance with inc := 0; if c { inc = 1 }; j += inc (a SETcc), select with min or max (a CMOV)"
        exit 1
    fi
    echo "lint-branchless: no conditional jump on a comparison in $* ($pkg, amd64)"
    ;;
esac
