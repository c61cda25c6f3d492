#!/usr/bin/env bash
# Full local gate: everything CI checks, in the order that fails fastest.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

# Debug-assertions pass over every workspace member (a bare `cargo test` at
# the root covers only the facade package): the dev profile keeps every
# debug_assert! in the hot path live — the laws `Simulation::audit` checks
# after every step (flits, output-VC ownership, credits), the kernel's
# summary checks after every router step, the flit pool's 8-bit generation
# tags (use-after-free / double-free checks on every FlitRef deref,
# DESIGN.md §19), the FifoBank ring-bounds checks, and the O(1) quiescence
# flag's cross-check against a full component scan all fire here and
# nowhere else. Its wall time is printed: it is a tracked number.
echo "==> cargo test -q --workspace"
started=$SECONDS
cargo test -q --offline --workspace
echo "debug test wall time (build included): $((SECONDS - started)) s"

# One lint pass over every target of every member: the facade, the
# hand-managed slab of noc-base's flit pool, the pipeline kernel and its
# two crate-private hook sets (pseudo-circuit), the campaign engine's
# hand-rolled TOML/JSON parsing, and the figure claims of tests/figures.rs.
# vendor/proptest is an implicit member and not ours to lint.
echo "==> cargo clippy --workspace --exclude proptest --all-targets -- -D warnings"
cargo clippy --workspace --exclude proptest --all-targets --offline -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items --offline --quiet

echo "==> cargo run --example quickstart (smoke)"
cargo run --release --offline --example quickstart >/dev/null

# Trace-file smoke: the one place the trace codec meets a real file — the
# example writes its recording to a path, reads it back through
# `BufReader<File>` (chunk boundaries the unit tests only imitate) and
# asserts the records are the ones it wrote.
echo "==> cargo run --example trace_replay <tmpfile> (smoke)"
tracefile=$(mktemp)
cargo run --release --offline --example trace_replay "$tracefile" >/dev/null
rm -f "$tracefile"

# Step-cost smoke: the sizing experiment behind the router's memory layout
# (EXPERIMENTS.md, "Cost of a step against network size") on its two
# smallest meshes — it must keep building, draining and counting bytes; it
# is not a measurement here.
echo "==> cargo run --example step_cost 12 16 (smoke)"
cargo run --release --offline --example step_cost 12 16 >/dev/null

# EVC smoke: the comparator scheme must run end-to-end through the CLI,
# including the kernel-provided observability surface.
echo "==> noc run --scheme evc (smoke)"
./target/release/noc run --topology mesh4x4 --scheme evc --routing xy \
    --warmup 200 --measure 1000 --drain 10000 --metrics full >/dev/null

# Ring + hybrid smoke: the topology-generalized routing layer (CW/CCW
# modes, dateline VC classes) and the profiled hybrid scheme, end to end
# through the CLI vocabulary — hybrid on the ring in one run, and the
# hierarchical ring under the pseudo-circuit scheme in another.
echo "==> noc run --topology ring8 --scheme hybrid (smoke)"
./target/release/noc run --topology ring8 --scheme hybrid --load 0.05 \
    --warmup 200 --measure 1000 --drain 10000 --metrics full >/dev/null
echo "==> noc run --topology hring2x8 --scheme pseudo+ps+bb (smoke)"
./target/release/noc run --topology hring2x8 --scheme pseudo+ps+bb \
    --load 0.05 --warmup 200 --measure 1000 --drain 10000 >/dev/null

# Release-mode hot-path smoke: all five workloads of the repository
# benchmark at 1/100 size, optimised, through the code path the measured run
# takes — the bitset VA/SA, the port-summary masks and worklists, the FIFO
# runs, the flit pool and the campaign cache — with the benchmark's own
# gate: equal report_hash across repetitions, threads=2 == threads=1 (a
# request the serial engine accepts and ignores), fast-forward on == off,
# cold/warm sweep byte-identity. A kernel change is checked by the benchmark before it
# is measured by it; this is not a measurement. (Its own package: builds
# into crates/bench/benchmark/target.)
echo "==> noc-benchmark --smoke"
cargo run --release --offline --quiet \
    --manifest-path crates/bench/benchmark/Cargo.toml -- --smoke >/dev/null

# Campaign smoke: a tiny 2-scheme × 2-load sweep, interrupted after one
# point (--max-points, the deterministic stand-in for a kill), resumed to
# completion, then re-run — the re-run must execute 0 points and the report
# must be byte-identical to the post-resume one (docs/CAMPAIGNS.md). The
# cache is the campaign's only state: `status` counts its hits, and a cache
# entry damaged past any parser's recursion budget is one more miss.
echo "==> noc campaign run / status / interrupt / resume / cached re-run (smoke)"
campdir=$(mktemp -d)
trap 'rm -rf "$campdir"' EXIT
cat > "$campdir/sweep.toml" <<'EOF'
name = "check-smoke"

[phases]
warmup = 50
measure = 200
drain = 2000

[axes]
topology = "mesh2x2"
scheme = ["baseline", "pseudo+ps+bb"]
packet = 2
load = [0.02, 0.05]
EOF
# The revision is pinned so the cache entries have known names.
campaign() {
    NOC_GIT_REV=check-smoke ./target/release/noc campaign "$1" \
        --spec "$campdir/sweep.toml" --out "$campdir/out" "${@:2}"
}
expect() { # expect LABEL NEEDLE TEXT
    grep -qF -- "$2" <<< "$3" || {
        echo "campaign smoke: $1: $3" >&2
        exit 1
    }
}
campaign run --max-points 1 >/dev/null
expect "status after one point" "1/4 points cached | no report yet" "$(campaign status)"
campaign run >/dev/null
expect "status after completion" "4/4 points cached | report.json present" "$(campaign status)"
cp "$campdir/out/report.json" "$campdir/report.first.json"
# One record of a run: `noc run` with the flags of a swept point writes that
# point's cache entry, byte for byte.
NOC_GIT_REV=check-smoke ./target/release/noc run --topology mesh2x2 --scheme baseline \
    --packet 2 --load 0.05 --warmup 50 --measure 200 --drain 2000 \
    --manifest "$campdir/manifest/run.json" >/dev/null
hash=$(sed -n 's/^  "config_hash": "\([0-9a-f]*\)",$/\1/p' "$campdir/manifest/run.json")
cmp "$campdir/manifest/run.json" "$campdir/out/cache/$hash-check-smoke.json" || {
    echo "campaign smoke: the manifest is not the point's cache entry" >&2
    exit 1
}
expect "cached re-run executed points" "cache hits 4 | executed 0" "$(campaign run)"
cmp -s "$campdir/out/report.json" "$campdir/report.first.json" || {
    echo "campaign smoke: cached re-run changed report bytes" >&2
    exit 1
}
# 1 MB of `[` in place of one cache entry: a miss that re-executes one
# point, not a stack overflow, and the same report.
entry=$(find "$campdir/out/cache" -name '*.json' | head -n 1)
head -c 1048576 /dev/zero | tr '\0' '[' > "$entry"
expect "re-run over a damaged entry" "cache hits 3 | executed 1" "$(campaign run)"
cmp -s "$campdir/out/report.json" "$campdir/report.first.json" || {
    echo "campaign smoke: re-running a damaged entry changed report bytes" >&2
    exit 1
}
# Specs are TOML only: a JSON spec is one TOML error line and exit 1.
echo '{"axes": {"load": [0.02, 0.05]}}' > "$campdir/sweep.json"
status=0
refusal=$(./target/release/noc campaign run --spec "$campdir/sweep.json" \
    --out "$campdir/json" 2>&1 >/dev/null) || status=$?
[ "$status" -eq 1 ] && [ "$refusal" = 'error: spec: line 1: expected `key = value`' ] || {
    echo "campaign smoke: a JSON spec exited $status saying: $refusal" >&2
    exit 1
}

# Packet length is part of a synthetic point's hash: the packet-size
# ablation (UR, 1/5/9-flit packets) runs as a campaign.
echo "==> noc campaign run with packet = [1, 5, 9] under ur"
cat > "$campdir/packets.toml" <<'EOF'
name = "check-packets"

[phases]
warmup = 50
measure = 200
drain = 2000

[axes]
topology = "mesh2x2"
traffic = "ur"
packet = [1, 5, 9]
load = 0.05
EOF
./target/release/noc campaign run --spec "$campdir/packets.toml" --out "$campdir/packets" >/dev/null
expect "packet sweep" "3/3 points cached | report.json present" \
    "$(./target/release/noc campaign status --spec "$campdir/packets.toml" --out "$campdir/packets")"

# A reader that stops early: output cut off by a closed pipe ends the
# process quietly with exit 0. The expansion is 10 000 lines, far past a
# pipe buffer, so its write really meets the closed pipe.
echo "==> noc list | head -n 1, noc campaign expand | head -n 1"
printf '[axes]\nload = [%s]\nseed = [%s]\n' "$(seq -s, -f '%ge-2' 1 100)" \
    "$(seq -s, 1 100)" > "$campdir/long.toml"
for cmd in "list" "campaign expand --spec $campdir/long.toml"; do
    # shellcheck disable=SC2086
    ./target/release/noc $cmd 2>"$campdir/stderr" | head -n 1 >/dev/null
    codes="${PIPESTATUS[*]}"
    [ "$codes" = "0 0" ] && [ ! -s "$campdir/stderr" ] || {
        echo "closed pipe: noc $cmd exited ${codes%% *}: $(cat "$campdir/stderr")" >&2
        exit 1
    }
done

# A spec past the point limit is refused where it is parsed, in one line
# (six axes of 64-100 values used to abort the process, which tried to
# allocate the whole expansion).
echo "==> noc campaign expand over an oversized spec (must be refused)"
printf '[axes]\nvcs = [%s]\nbuffer = [%s]\npacket = [%s]\nseed = [%s]\nload = [%s]\ntopology = [%s]\n' \
    "$(seq -s, 1 64)" "$(seq -s, 1 100)" "$(seq -s, 1 100)" "$(seq -s, 1 100)" \
    "$(seq -s, -f '%ge-2' 1 100)" "$(seq -s, -f '"ring%g"' 2 101)" > "$campdir/huge.toml"
status=0
refusal=$(./target/release/noc campaign expand --spec "$campdir/huge.toml" 2>&1 >/dev/null) ||
    status=$?
[ "$status" -eq 1 ] && [ "$refusal" = 'error: spec: the axes expand to 640000000000 points, at most 1048576 are supported' ] || {
    echo "oversized spec: noc campaign expand exited $status saying: $refusal" >&2
    exit 1
}

# The widest seed: `noc run --seed` takes any u64, and so must a spec and the
# cache entry its point leaves — the first run executes the point, the second
# must find it in the cache.
echo "==> noc campaign run with seed = u64::MAX, then cached"
cat > "$campdir/seed.toml" <<'EOF'
name = "check-seed"

[phases]
warmup = 50
measure = 200
drain = 2000

[axes]
topology = "mesh2x2"
packet = 2
load = 0.05
seed = [18446744073709551615]
EOF
./target/release/noc campaign run --spec "$campdir/seed.toml" \
    --out "$campdir/seed" --max-points 1 >/dev/null
rerun=$(./target/release/noc campaign run --spec "$campdir/seed.toml" \
    --out "$campdir/seed" --max-points 1)
grep -q "cache hits 1 | executed 0" <<< "$rerun" || {
    echo "u64::MAX seed: the re-run missed the cache: $rerun" >&2
    exit 1
}

# Run phases past the 64-bit cycle counter: refused by validation in one
# line, where a release build used to wrap `warmup + measure` into a short
# run that exited 0.
echo "==> noc run --warmup u64::MAX (must be refused)"
status=0
refusal=$(./target/release/noc run --warmup 18446744073709551615 --measure 1000 2>&1 >/dev/null) ||
    status=$?
[ "$status" -eq 1 ] || {
    echo "overflowing --warmup: noc run exited $status" >&2
    exit 1
}
[ "$refusal" = 'error: warmup + measure + drain: 18446744073709551615 + 1000 + 100000 cycles overflow the 64-bit cycle counter' ] || {
    echo "overflowing --warmup: noc run said: $refusal" >&2
    exit 1
}

# Docs link check: dangling relative links, anchors, and DESIGN.md §
# references.
echo "==> scripts/check_links.sh"
scripts/check_links.sh

echo "==> cargo fmt --check"
cargo fmt --check

# The size numbers ROADMAP.md tracks, for the PR description; a gate on the
# ones with a ceiling (workspace crates, public items, NOC_* variables,
# `unsafe` uses, the lengths of DESIGN.md and EXPERIMENTS.md).
echo "==> scripts/budget.sh"
scripts/budget.sh

echo "All checks passed."
