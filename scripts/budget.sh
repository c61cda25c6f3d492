#!/usr/bin/env bash
# The numbers ROADMAP.md tracks ("Quality of design"), computed rather than
# estimated: non-test lines, public items, workspace crates, environment
# variables read, `unsafe` uses, and the lengths of DESIGN.md and
# EXPERIMENTS.md. Exits 1, naming the number, when one the
# ROADMAP says must go no higher exceeds its ceiling below; a PR that lowers
# one lowers its ceiling with it.
# Run from anywhere; counts the workspace containing this script. The
# repository benchmark (crates/bench/benchmark) is a package of its own and
# is not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

max_crates=8
max_public_items=467
max_noc_vars=3
max_unsafe=19
max_design_lines=1198
max_experiments_lines=921

# A file's non-test lines are those before its first `#[cfg(test)]` at the
# start of a line (the unit-test module a source file here ends with).
non_test() {
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test'
}

echo "non-test lines (crates/*/src + src/):  $(non_test src crates/*/src | wc -l)"

# Public items: declarations visible outside their crate's module tree
# (`pub(crate)` and narrower are not counted), one per line.
public_items=$(non_test src crates/*/src |
    { grep -cE '^\s*pub (fn|struct|enum|trait|type|const|static|mod|use|unsafe fn)\b' || true; })
echo "public items (non-test lines):         $public_items"

crates=$(find crates -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l)
echo "workspace crates (crates/*/Cargo.toml): $crates"

# Variables the Rust sources read (library, CLI, tests, examples, benches);
# a script that sets one adds no second knob.
vars=$(grep -rhoE 'var(_os)?\(\s*"NOC_[A-Z_]+"' --include='*.rs' \
    --exclude-dir=benchmark src crates tests examples |
    grep -oE 'NOC_[A-Z_]+' | sort -u | xargs)
noc_vars=$(wc -w <<<"$vars")
echo "NOC_* environment variables read:      $noc_vars ($vars)"

echo "unsafe occurrences in non-test lines, per crate:"
unsafe_total=0
for dir in src crates/*/src; do
    n=$(non_test "$dir" | { grep -ow 'unsafe' || true; } | wc -l)
    if [ "$n" -gt 0 ]; then
        printf '  %-20s %s\n' "${dir%/src}" "$n"
    fi
    unsafe_total=$((unsafe_total + n))
done
echo "  total                $unsafe_total"

design_lines=$(wc -l <DESIGN.md)
experiments_lines=$(wc -l <EXPERIMENTS.md)
echo "DESIGN.md lines:                       $design_lines"
echo "EXPERIMENTS.md lines:                  $experiments_lines"

over=0
ceiling() { # ceiling NAME VALUE MAX
    if [ "$2" -gt "$3" ]; then
        echo "budget: $1 is $2, above its ceiling of $3" >&2
        over=1
    fi
}
ceiling "workspace crates" "$crates" "$max_crates"
ceiling "public items" "$public_items" "$max_public_items"
ceiling "NOC_* environment variables" "$noc_vars" "$max_noc_vars"
ceiling "unsafe occurrences" "$unsafe_total" "$max_unsafe"
ceiling "DESIGN.md lines" "$design_lines" "$max_design_lines"
ceiling "EXPERIMENTS.md lines" "$experiments_lines" "$max_experiments_lines"
exit "$over"
