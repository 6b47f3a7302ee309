#!/usr/bin/env bash
# Code-only lines of the production crates: for every .rs file under
# crates/*/src, the lines before the file's first `#[cfg(test)]`, minus
# blank lines and `//` comment lines (doc comments included). Prints one
# count per crate and the total.
#
# Usage: scripts/code_lines.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    n=0
    while IFS= read -r -d '' f; do
        lines="$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^\s*$' | grep -cv '^\s*//' || true)"
        n=$((n + lines))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
