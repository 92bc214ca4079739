#!/bin/sh
# Checks that every flag the docs show for a command exists: the flag
# must be listed by `go run ./cmd/NAME -h`. A removed or renamed flag
# otherwise lingers in the docs until a reader's copy-paste fails.
#
#   sh scripts/check_cli_flags.sh [FILE...]
#
# Defaults: README.md EXPERIMENTS.md DESIGN.md and
# .claude/skills/verify/SKILL.md. It reads fenced-code lines that start
# `go run ./cmd/NAME` (a trailing `\` continues the line) and inline code
# spans that start `NAME -` or `go run ./cmd/NAME -`, for each NAME with
# a directory under cmd/; a shell comment, pipe, `;`, `&` or redirection
# ends a command. Exits 1 naming each flag no command lists, 2 when a
# file is missing.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "$#" -eq 0 ]; then
    cd "$here/.."
    set -- README.md EXPERIMENTS.md DESIGN.md .claude/skills/verify/SKILL.md
fi
for f in "$@"; do
    [ -f "$f" ] || { echo "check-cli-flags: no such file: $f" >&2; exit 2; }
done
cmds=$(cd "$here/../cmd" && ls -d -- */ | tr -d /)

# One line per documented flag: FILE:LINE, command, flag.
awk -v cmds="$cmds" '
    function flags(where, name, args,   n, tok, i, f) {
        sub(/[|;>&#].*/, "", args)
        n = split(args, tok, /[ \t]+/)
        for (i = 1; i <= n; i++) {
            if (tok[i] !~ /^--?[a-z]/) continue
            f = tok[i]
            sub(/^--?/, "", f)
            sub(/=.*/, "", f)
            print where, name, f
        }
    }
    BEGIN { n = split(cmds, c, /[ \t\n]+/); for (i = 1; i <= n; i++) iscmd[c[i]] = 1 }
    FNR == 1 { fence = 0; cont = "" }
    /^[ \t]*```/ { fence = !fence; cont = ""; next }
    fence {
        if (cont == "") at = FILENAME ":" FNR
        line = cont $0
        cont = ""
        if (line ~ /\\$/) { cont = substr(line, 1, length(line) - 1) " "; next }
        sub(/^[ \t]+/, "", line)
        if (line !~ /^go run \.\/cmd\//) next
        rest = substr(line, length("go run ./cmd/") + 1)
        name = rest
        sub(/[^a-z0-9_-].*/, "", name)
        if (iscmd[name]) flags(at, name, substr(rest, length(name) + 1))
        next
    }
    {
        line = $0
        while (match(line, /`[^`]+`/)) {
            span = substr(line, RSTART + 1, RLENGTH - 2)
            line = substr(line, RSTART + RLENGTH)
            if (index(span, "go run ./cmd/") == 1) span = substr(span, length("go run ./cmd/") + 1)
            name = span
            sub(/ .*/, "", name)
            if (iscmd[name] && index(span, name " -") == 1) flags(FILENAME ":" FNR, name, substr(span, length(name) + 1))
        }
    }
' "$@" > "$tmp/documented"

bad=0
for name in $(awk '{ print $2 }' "$tmp/documented" | sort -u); do
    (cd "$here/.." && "$GO" run "./cmd/$name" -h) 2>&1 |
        sed -n 's/^  -\([^ ]*\).*/\1/p' > "$tmp/$name.flags"
    printf 'h\nhelp\n' >> "$tmp/$name.flags"
    while read -r where cmd flag; do
        [ "$cmd" = "$name" ] || continue
        if ! grep -qx -- "$flag" "$tmp/$name.flags"; then
            echo "FAIL: $where: $name -$flag is not a flag of cmd/$name"
            bad=$((bad + 1))
        fi
    done < "$tmp/documented"
done

if [ "$bad" -gt 0 ]; then
    echo "$bad documented flag(s) do not exist"
    exit 1
fi
echo "ok: every documented flag of $(echo $cmds) exists ($(wc -l < "$tmp/documented" | tr -d ' ') uses)"
