#!/usr/bin/env bash
# Count non-test lines under crates/: for every crates/*/src/**/*.rs file,
# the lines above its first `#[cfg(test)]` (the whole file when it has
# none). Test-only files (runtime_tests.rs, apptests.rs, proptests.rs) are
# skipped. Prints one "<lines> <file>" row per file, then the total.
#
# Usage: scripts/nontest_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' \
    ! -name runtime_tests.rs ! -name apptests.rs ! -name proptests.rs |
    LC_ALL=C sort |
    while read -r f; do
        first=$(grep -n -m1 -F '#[cfg(test)]' "$f" | cut -d: -f1 || true)
        if [ -n "$first" ]; then
            echo "$((first - 1)) $f"
        else
            echo "$(wc -l <"$f") $f"
        fi
    done |
    awk '{ print; total += $1 } END { print total, "total" }'
