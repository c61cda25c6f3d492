#!/usr/bin/env bash
# Full local gate: everything CI checks, in the order that fails fastest.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

# Debug-assertions pass over every workspace member (a bare `cargo test` at
# the root covers only the facade package): unoptimized profile, so every
# debug_assert! in the hot path is live — the flit pool's 8-bit generation
# tags (use-after-free / double-free checks on every FlitRef deref,
# DESIGN.md §19), the FifoBank ring-bounds checks, and the O(1) quiescence
# flag's cross-check against a full shard scan all fire here and nowhere
# else.
echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

# Second pass with the host budget capped at two: what reads the budget
# (noc_base::pool::host_threads — a campaign's default worker count,
# parallel_map, the CLI's ceiling on --threads) runs exactly two wide
# whatever the host, so the sweep tests drive the worker pool in the
# submitter-plus-one-worker shape the benchmark measures. The engine's own
# thread count is a command (Simulation::set_threads) that reads no
# environment: tests/determinism_threads.rs shards at 2, 4 and 7 either way.
echo "==> NOC_THREADS=2 cargo test -q --workspace"
NOC_THREADS=2 cargo test -q --offline --workspace

# One lint pass over every target of every member: the facade, the unsafe
# lifetime erasure of noc-base's worker pool, both sides
# of the kernel/hooks contract (noc-sim and the three scheme crates), the
# campaign engine's hand-rolled TOML/JSON parsing, and noc-bench's figure
# harnesses. vendor/proptest is an implicit member and not ours to lint.
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

# Figure-harness smoke: three of the figure/table harnesses executed once,
# so one that panics at start-up fails here. fig08_overall is the headline
# sweep; ablation_vc_count drives `validate`'s VC-class rule through a
# harness; ext_patterns is the one harness with object-level rows (the
# hotspot pattern the traffic vocabulary cannot name). Phases are fixed, so
# these are seconds apiece in release.
for harness in fig08_overall ablation_vc_count ext_patterns; do
    echo "==> cargo bench --bench $harness (smoke)"
    cargo bench -q -p noc-bench --offline --bench "$harness" >/dev/null
done

# Release-mode hot-path smoke: all five workloads of the repository
# benchmark at 1/100 size, optimised, through the code path the measured run
# takes — the bitset VA/SA, the port-summary masks and worklists, the FIFO
# runs, the flit pool, the sharded engine at 2 threads and the campaign
# cache — with the benchmark's own gate: equal report_hash across
# repetitions, threads=2 == threads=1, fast-forward on == off, cold/warm
# sweep byte-identity. A kernel change is checked by the benchmark before it
# is measured by it; this is not a measurement. (Its own package: builds
# into crates/bench/benchmark/target.)
echo "==> noc-benchmark --smoke"
cargo run --release --offline --quiet \
    --manifest-path crates/bench/benchmark/Cargo.toml -- --smoke >/dev/null

# Campaign smoke: a tiny 2-scheme × 2-load sweep, interrupted after one
# point (--max-points, the deterministic stand-in for a kill), resumed to
# completion, then re-run — the re-run must execute 0 points and the report
# must be byte-identical to the post-resume one (docs/CAMPAIGNS.md).
echo "==> noc campaign run / interrupt / resume / cached re-run (smoke)"
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
./target/release/noc campaign run --spec "$campdir/sweep.toml" \
    --out "$campdir/out" --max-points 1 >/dev/null
./target/release/noc campaign run --spec "$campdir/sweep.toml" \
    --out "$campdir/out" >/dev/null
cp "$campdir/out/report.json" "$campdir/report.first.json"
rerun=$(./target/release/noc campaign run --spec "$campdir/sweep.toml" \
    --out "$campdir/out")
grep -q "cache hits 4 | executed 0" <<< "$rerun" || {
    echo "campaign smoke: cached re-run executed points: $rerun" >&2
    exit 1
}
cmp -s "$campdir/out/report.json" "$campdir/report.first.json" || {
    echo "campaign smoke: cached re-run changed report bytes" >&2
    exit 1
}

# Hostile thread budget: a NOC_THREADS that is not a positive integer ends
# `noc run` and `noc campaign run` in one line on stderr and exit 1 — the
# unit tests cover the parser, only a real environment covers the wiring.
echo "==> NOC_THREADS=lots noc run / noc campaign run (must be refused)"
for cmd in "run --measure 10" "campaign run --spec $campdir/sweep.toml --out $campdir/out"; do
    # shellcheck disable=SC2086
    if refusal=$(NOC_THREADS=lots ./target/release/noc $cmd 2>&1 >/dev/null); then
        echo "hostile NOC_THREADS: noc $cmd exited 0" >&2
        exit 1
    fi
    [ "$refusal" = 'error: NOC_THREADS must be a positive integer, got "lots"' ] || {
        echo "hostile NOC_THREADS: noc $cmd said: $refusal" >&2
        exit 1
    }
done

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

# Not a gate: the size numbers ROADMAP.md tracks, for the PR description.
echo "==> scripts/budget.sh"
scripts/budget.sh

echo "All checks passed."
