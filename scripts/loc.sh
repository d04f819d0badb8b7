#!/usr/bin/env bash
# Counts production lines: the non-blank lines of every
# crates/*/src/**/*.rs file above its first `#[cfg(test)]` (the whole
# file when it has none), printed per crate and in total. Informational
# only — no gate reads it.
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
            FNR == 1 { in_tests = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && NF > 0 { n++ }
            END { print n + 0 }')"
    printf '%-12s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
