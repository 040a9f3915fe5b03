#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of every `.rs` file under a
# crate's `src/`, up to the file's first `#[cfg(test)]` (a unit-test
# module sits at the end of its file by convention). Blank and comment
# lines count; `tests/`, `benches/`, examples and `third_party/` do not.
# The root package's `src/` is listed as `dash`. A report, not a gate:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n++ }
        END { print n + 0 }'
}

total=0
for src in src crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    [ "$src" = src ] && crate=dash
    n="$(count "$src")"
    total=$((total + n))
    printf '%-14s %6d\n' "$crate" "$n"
done
printf '%-14s %6d\n' total "$total"
