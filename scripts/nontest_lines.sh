#!/usr/bin/env bash
# Count non-test lines under crates/: for every crates/*/src/**/*.rs file,
# the lines above the `#[cfg(test)]` that sits directly above its
# `mod tests` (the whole file when it has none), less every other
# `#[cfg(test)]` item above that point: the attribute, the item it gates
# (to the line where its brackets close and it ends in `;`, `,` or `}`)
# and the `///` doc lines right above the attribute. Test-only files
# (runtime_tests.rs, apptests.rs, proptests.rs) are skipped. Prints one
# "<lines> <file>" row per file, then the total.
#
# Usage: scripts/nontest_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' \
    ! -name runtime_tests.rs ! -name apptests.rs ! -name proptests.rs |
    LC_ALL=C sort |
    while read -r f; do
        awk -v file="$f" '
            { line[NR] = $0 }
            function is_attr(s) { return s ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ }
            function depth(s,   t) {
                t = s
                return gsub(/[\{\(\[]/, "", t) - gsub(/[\}\)\]]/, "", s)
            }
            END {
                end = NR
                for (i = 1; i < NR; i++)
                    if (is_attr(line[i]) && line[i + 1] ~ /^[ \t]*(pub(\([a-z]+\))? )?mod tests[ \t]*\{/) {
                        end = i - 1
                        break
                    }
                test = 0
                for (i = 1; i <= end; i++) {
                    if (!is_attr(line[i])) continue
                    for (k = i - 1; k >= 1 && line[k] ~ /^[ \t]*\/\/\// && !(k in gone); k--) {
                        gone[k] = 1; test++
                    }
                    gone[i] = 1; test++
                    d = 0
                    for (j = i + 1; j <= end; j++) {
                        gone[j] = 1; test++
                        d += depth(line[j])
                        if (d <= 0 && line[j] ~ /[;,\}][ \t]*$/) break
                    }
                    i = j
                }
                print end - test, file
            }' "$f"
    done |
    awk '{ print; total += $1 } END { print total, "total" }'
