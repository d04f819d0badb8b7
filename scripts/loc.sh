#!/usr/bin/env bash
# Counts production lines: the non-blank lines of every
# crates/*/src/**/*.rs file, printed per crate and in total, leaving out
# test-only code. A `#[cfg(test)]` that opens a `mod` ends the file's
# count (test modules close the file); any other `#[cfg(test)]` item is
# skipped through the end of its brace-counted body, or through its `;`
# when it has none. Informational only — no gate reads it.
#
#   scripts/loc.sh            # count the working tree
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    name="$(basename "$crate")"
    [ -d "$crate/src" ] || continue
    n="$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { done = 0; attr = 0; skip = 0 }
            done { next }
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { attr = 1; next }
            attr && /^[[:space:]]*#\[/ { next }
            attr && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { done = 1; next }
            attr { attr = 0; skip = 1; depth = 0; opened = 0 }
            skip {
                t = $0; o = gsub(/\{/, "", t)
                t = $0; c = gsub(/\}/, "", t)
                depth += o - c
                if (o > 0) opened = 1
                if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
                next
            }
            NF > 0 { n++ }
            END { print n + 0 }')"
    printf '%-12s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
