//! Thread-count invariance: the multi-threaded sharded engine must produce a
//! byte-identical `SimReport` for any thread budget, including
//! non-power-of-two counts whose shard partition has a short tail shard.
//! (The configuration hash is computed from the point before any
//! `Simulation` exists, so it cannot see the thread count.)
//!
//! This is the determinism contract of DESIGN.md §12: because every link
//! carries one cycle of latency, a cycle's router computation depends only
//! on the previous cycle's inboxes, and the per-shard outbox merge replays
//! the serial engine's per-receiver event order exactly.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, RouterFactory, RunSpec, Simulation};
use noc_topology::{Mecs, Mesh, Ring, SharedTopology};
use noc_traffic::{BenchmarkProfile, CmpTraffic};
use pseudo_circuit::{EvcRouterFactory, HybridRouterFactory, PcRouterFactory, Scheme};
use std::sync::Arc;

const SEED: u64 = 0x5eed;
const PHASES: RunSpec = RunSpec {
    warmup: 500,
    measure: 2_000,
    drain: 40_000,
};

/// A golden-report configuration (tests/golden_report.rs: `fft` traffic
/// seeded apart from the engine, the paper's buffers) built but not yet
/// run, single-threaded.
fn golden_sim(
    topo: SharedTopology,
    routing: RoutingPolicy,
    va_policy: VaPolicy,
    factory: &dyn RouterFactory,
) -> Simulation {
    let profile = *BenchmarkProfile::by_name("fft").unwrap();
    let traffic = CmpTraffic::for_topology(topo.as_ref(), profile, SEED ^ 0x77).unwrap();
    let config = NetworkConfig {
        routing,
        va_policy,
        ..NetworkConfig::paper()
    };
    Simulation::new(topo, config, Box::new(traffic), factory, SEED)
}

/// Runs a golden configuration at a thread budget; returns the report text.
fn run_at(
    threads: usize,
    topo: SharedTopology,
    routing: RoutingPolicy,
    va_policy: VaPolicy,
    factory: &dyn RouterFactory,
) -> String {
    let mut sim = golden_sim(topo, routing, va_policy, factory);
    sim.set_threads(threads);
    let report = sim.run(PHASES);
    format!("{report:#?}\n")
}

/// The paper-config golden (4×4 CMesh, O1TURN + dynamic VA, full scheme).
fn golden_run(threads: usize) -> String {
    run_at(
        threads,
        Arc::new(Mesh::new(4, 4, 4)),
        RoutingPolicy::O1Turn,
        VaPolicy::Dynamic,
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
    )
}

/// The EVC golden-report configuration (tests/golden_report.rs),
/// parameterized by thread budget. EVC routers must satisfy the same
/// thread-count-invariance contract as the pseudo-circuit scheme.
fn evc_run(threads: usize) -> String {
    run_at(
        threads,
        Arc::new(Mesh::new(4, 4, 1)),
        RoutingPolicy::Xy,
        VaPolicy::Dynamic,
        &EvcRouterFactory,
    )
}

/// A pseudo-circuit golden on another topology (XY + static VA).
fn topo_run(threads: usize, topo: SharedTopology) -> String {
    run_at(
        threads,
        topo,
        RoutingPolicy::Xy,
        VaPolicy::Static,
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
    )
}

#[test]
fn golden_report_is_byte_identical_across_thread_counts() {
    let serial = golden_run(1);
    // 7 threads on 16 routers is deliberate: ceil-division sharding leaves a
    // short tail shard, exercising uneven ranges and the inline fast path of
    // partially-filled batches.
    for threads in [2usize, 4, 7] {
        assert_eq!(
            serial,
            golden_run(threads),
            "SimReport diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn evc_report_is_byte_identical_across_thread_counts() {
    let serial = evc_run(1);
    // 7 threads over 16 routers leaves a short tail shard (see above).
    for threads in [2usize, 4, 7] {
        assert_eq!(
            serial,
            evc_run(threads),
            "EVC SimReport diverged between 1 and {threads} threads"
        );
    }
}

/// The MECS golden configuration (tests/golden_report.rs) parameterized by
/// thread budget. MECS is the asymmetric stress case for the fused merge:
/// multidrop channels give each router far more input than output ports, so
/// one source shard's emissions fan out across many destination shards'
/// lanes, and its port asymmetry makes the shard workloads uneven.
fn mecs_run(threads: usize) -> String {
    topo_run(threads, Arc::new(Mecs::new(4, 4, 4)))
}

#[test]
fn mecs_report_is_byte_identical_at_prime_thread_counts() {
    // Prime thread budgets (3, 5) over 16 routers shard into 6 and 10
    // uneven ranges: the quiescent-shard mask, the fused lane merge and the
    // pool's dynamic claiming all see short tail shards and partial epochs.
    let serial = mecs_run(1);
    for threads in [3usize, 5] {
        assert_eq!(
            serial,
            mecs_run(threads),
            "MECS SimReport diverged between 1 and {threads} threads"
        );
    }
}

/// The ring golden configuration (tests/golden_report.rs) parameterized by
/// thread budget. The ring's dateline VC classes and CW/CCW modes must not
/// disturb the sharded engine's replay of the serial event order.
fn ring_run(threads: usize) -> String {
    topo_run(threads, Arc::new(Ring::new(8, 1)))
}

#[test]
fn ring_report_is_byte_identical_across_thread_counts() {
    // 7 threads over 8 routers leaves single-router shards plus a tail.
    let serial = ring_run(1);
    for threads in [2usize, 4, 7] {
        assert_eq!(
            serial,
            ring_run(threads),
            "ring SimReport diverged between 1 and {threads} threads"
        );
    }
}

/// The hybrid golden configuration (tests/golden_report.rs) parameterized
/// by thread budget. The profile freeze is keyed on the cycle number alone,
/// so the hot-flow tables — and everything downstream of them — must be
/// identical however the routers are sharded.
fn hybrid_run(threads: usize) -> String {
    run_at(
        threads,
        Arc::new(Mesh::new(4, 4, 1)),
        RoutingPolicy::Xy,
        VaPolicy::Dynamic,
        &HybridRouterFactory::default(),
    )
}

#[test]
fn hybrid_report_is_byte_identical_across_thread_counts() {
    let serial = hybrid_run(1);
    for threads in [2usize, 4, 7] {
        assert_eq!(
            serial,
            hybrid_run(threads),
            "hybrid SimReport diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn set_threads_between_runs_is_transparent() {
    // Re-sharding an existing simulation between runs must not perturb the
    // next run relative to a freshly built simulation at that thread count.
    let mut sim = golden_sim(
        Arc::new(Mesh::new(4, 4, 4)),
        RoutingPolicy::O1Turn,
        VaPolicy::Dynamic,
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
    );
    sim.set_threads(4);
    assert_eq!(sim.threads(), 4);
    assert!(sim.shards() >= 1);
    let report = sim.run(PHASES);

    let fresh = golden_run(4);
    assert_eq!(format!("{report:#?}\n"), fresh);
}
