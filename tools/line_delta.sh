#!/usr/bin/env bash
# Net code lines (added - removed) per top-level directory between a
# base commit and the working tree, untracked (but not ignored) files
# included. Markdown, JSON and the golden outputs under tests/golden/
# are not code and are left out. Files at the repository root count
# under "(root)". A depth of 2 splits by second-level directory too
# (src/core, src/ml, ...).
#
# Usage: tools/line_delta.sh <base> [depth]
#        (e.g. tools/line_delta.sh HEAD~1, tools/line_delta.sh main 2)
set -euo pipefail

cd "$(dirname "$0")/.."
BASE="${1:?usage: tools/line_delta.sh <base> [depth]}"
DEPTH="${2:-1}"

{
    git diff --numstat --no-renames "$BASE" --
    git ls-files --others --exclude-standard | while IFS= read -r f; do
        printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
    done
} | awk -F'\t' -v depth="$DEPTH" '
    $1 == "-" { next }  # binary
    $3 ~ /\.(md|json)$/ || $3 ~ /^tests\/golden\// { next }
    {
        n = split($3, part, "/")
        dir = n > 1 ? part[1] : "(root)"
        for (i = 2; i <= depth && i < n; ++i)
            dir = dir "/" part[i]
        add[dir] += $1; del[dir] += $2
    }
    END { for (d in add) print d, add[d], del[d] }' | sort | awk '
    BEGIN { printf "%-12s %8s %8s %8s\n", "dir", "added", "removed", "net" }
    {
        printf "%-12s %8d %8d %+8d\n", $1, $2, $3, $2 - $3
        add += $2; del += $3
    }
    END { printf "%-12s %8d %8d %+8d\n", "total", add, del, add - del }'
