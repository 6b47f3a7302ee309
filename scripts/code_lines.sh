#!/usr/bin/env bash
# Code-only lines of the production crates: for every .rs file under
# crates/*/src, every line except blank lines, `//` comment lines (doc
# comments included) and the items under `#[cfg(test)]`. Such an item
# is skipped from its attribute line up to the line where its braces
# close again, or up to its `;` if it has no body, so production code
# that follows a test-only item mid-file still counts. Braces are
# counted per line without parsing strings or char literals. Prints one
# count per crate and the total.
#
# Usage: scripts/code_lines.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Print the lines of a file that are not under `#[cfg(test)]`.
production='
skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; sub(/.*#\[cfg\(test\)\]/, "") }
skip == 0 { print; next }
{
    opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
    depth += opens - closes
    if (opens > 0) opened = 1
    if ((opened && depth <= 0) || (!opened && /;/)) skip = 0
}'

total=0
for src in crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    n=0
    while IFS= read -r -d '' f; do
        lines="$(awk "$production" "$f" | grep -v '^\s*$' | grep -cv '^\s*//' || true)"
        n=$((n + lines))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
