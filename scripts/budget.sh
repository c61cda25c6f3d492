#!/usr/bin/env bash
# The numbers ROADMAP.md tracks ("Quality of design"), computed rather than
# estimated: non-test lines, environment variables read, `unsafe` uses.
# Run from anywhere; counts the workspace containing this script. The
# repository benchmark (crates/bench/benchmark) is a package of its own and
# is not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

# A file's non-test lines are those before its first `#[cfg(test)]` at the
# start of a line (the unit-test module a source file here ends with).
non_test() {
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test'
}

echo "non-test lines (crates/*/src + src/):  $(non_test src crates/*/src | wc -l)"

# Variables the Rust sources read (library, CLI, tests, examples, benches);
# a script that sets one adds no second knob.
vars=$(grep -rhoE 'var(_os)?\(\s*"NOC_[A-Z_]+"' --include='*.rs' \
    --exclude-dir=benchmark src crates tests examples |
    grep -oE 'NOC_[A-Z_]+' | sort -u | xargs)
echo "NOC_* environment variables read:      $(wc -w <<<"$vars") ($vars)"

echo "unsafe occurrences in non-test lines, per crate:"
for dir in src crates/*/src; do
    n=$(non_test "$dir" | { grep -ow 'unsafe' || true; } | wc -l)
    if [ "$n" -gt 0 ]; then
        printf '  %-20s %s\n' "${dir%/src}" "$n"
    fi
done
