//! Golden-report determinism test for the simulation engine.
//!
//! A fixed-seed paper-config CMP run (4×4 CMesh, 64 nodes, full
//! pseudo-circuit scheme, `fft` benchmark profile) must produce a
//! byte-identical [`noc_sim::SimReport`] — latency, throughput, energy and
//! locality included — across engine refactors. The reference under
//! `tests/golden/` was captured from the seed engine (pre-flattening,
//! pre-worklist); any divergence means an engine change altered simulated
//! behaviour rather than just its speed.
//!
//! Regenerate deliberately with `NOC_BLESS=1 cargo test --test golden_report`.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_sim::{
    MetricsConfig, MetricsLevel, NetworkConfig, RouterFactory, RunSpec, SimReport, Simulation,
};
use noc_topology::{FlattenedButterfly, Mecs, Mesh, Ring, SharedTopology};
use noc_traffic::{BenchmarkProfile, CmpTraffic};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/cmp4x4_pseudo_fft.txt";
const EVC_GOLDEN_PATH: &str = "tests/golden/mesh4x4_evc_fft.txt";
const FBFLY_GOLDEN_PATH: &str = "tests/golden/fbfly4x4_pseudo_fft.txt";
const MECS_GOLDEN_PATH: &str = "tests/golden/mecs4x4_pseudo_fft.txt";
const RING_GOLDEN_PATH: &str = "tests/golden/ring8_pseudo_fft.txt";
const HYBRID_GOLDEN_PATH: &str = "tests/golden/mesh4x4_hybrid_fft.txt";
const SHALLOW_GOLDEN_PATH: &str = "tests/golden/mesh4x4_shallow_pseudo_fft.txt";

/// Reads a golden file, or blesses `actual` into it under `NOC_BLESS=1`.
/// Returns `None` when the file was just (re)written.
fn golden_expectation(rel_path: &str, actual: &str) -> Option<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    if std::env::var_os("NOC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return None;
    }
    Some(
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {rel_path} ({e}); run with NOC_BLESS=1")
        }),
    )
}

/// What every golden run shares: the `fft` CMP profile on `topo` (traffic
/// seeded apart from the engine, as when the goldens were captured), engine
/// seed `0x5eed`, a 2 000-cycle window. The goldens predate the `PointSpec`
/// vocabulary's one-seed convention, so the simulation is assembled from
/// objects.
fn fft_report(
    topo: SharedTopology,
    config: NetworkConfig,
    factory: &dyn RouterFactory,
    metrics: MetricsLevel,
) -> SimReport {
    fft_simulation(topo, config, factory, metrics).run(RunSpec::new(500, 2_000, 40_000))
}

/// The paper's 4 VCs × 4 flits under `routing` and `va_policy`: the buffers
/// of every golden but the shallow one.
fn paper(routing: RoutingPolicy, va_policy: VaPolicy) -> NetworkConfig {
    NetworkConfig {
        routing,
        va_policy,
        ..NetworkConfig::paper()
    }
}

/// The simulation [`fft_report`] runs.
fn fft_simulation(
    topo: SharedTopology,
    config: NetworkConfig,
    factory: &dyn RouterFactory,
    metrics: MetricsLevel,
) -> Simulation {
    let profile = *BenchmarkProfile::by_name("fft").expect("fft profile exists");
    let traffic = CmpTraffic::for_topology(topo.as_ref(), profile, 0x5eed ^ 0x77)
        .expect("golden topologies have a CMP floorplan");
    Simulation::with_metrics(
        topo,
        config,
        MetricsConfig::level(metrics),
        Box::new(traffic),
        factory,
        0x5eed,
    )
}

/// The golden text of a report. Observability is passive: stripping it must
/// leave the seed-era report (the `Debug` impl omits the field when `None`).
/// `{:#?}` of the full report covers every field (latency, hops, throughput,
/// per-counter energy, locality, backlog) with stable formatting; f64 Debug
/// is shortest-roundtrip and deterministic.
fn golden_text(mut report: SimReport) -> String {
    report.observability = None;
    format!("{report:#?}\n")
}

/// The paper-config run: 4×4 CMesh, O1TURN + dynamic VA, full scheme.
fn golden_report_at(metrics: MetricsLevel) -> SimReport {
    fft_report(
        Arc::new(Mesh::new(4, 4, 4)),
        paper(RoutingPolicy::O1Turn, VaPolicy::Dynamic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        metrics,
    )
}

fn golden_run_at(metrics: MetricsLevel) -> String {
    golden_text(golden_report_at(metrics))
}

fn golden_run() -> String {
    golden_run_at(MetricsLevel::Off)
}

/// A fixed-seed EVC run on a 4×4 mesh (16 nodes, checkerboard CMP layout,
/// `fft` profile, XY routing — EVC requires a single-class routing policy).
/// Pinned *before* the shared pipeline-kernel extraction so the refactor's
/// equivalence is provable for the EVC router too, not just pseudo-circuit.
fn evc_golden_run_at(metrics: MetricsLevel) -> String {
    golden_text(fft_report(
        Arc::new(Mesh::new(4, 4, 1)),
        paper(RoutingPolicy::Xy, VaPolicy::Dynamic),
        &PcRouterFactory::new(Scheme::evc()),
        metrics,
    ))
}

fn evc_golden_run() -> String {
    evc_golden_run_at(MetricsLevel::Off)
}

/// A fixed-seed pseudo-circuit run on a hop-reducing topology (XY + static
/// VA, the fig. 13 configuration). Pinned *before* the bitset/incremental-
/// mask rewrite of the pipeline kernel so its equivalence argument covers
/// the port asymmetries of MECS (input ports ≫ output ports) and the
/// high-radix flattened butterfly, not just mesh/CMesh.
fn topo_golden_run(topo: SharedTopology) -> String {
    golden_text(fft_report(
        topo,
        paper(RoutingPolicy::Xy, VaPolicy::Static),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        MetricsLevel::Off,
    ))
}

fn fbfly_golden_run() -> String {
    topo_golden_run(Arc::new(FlattenedButterfly::new(4, 4, 4)))
}

fn mecs_golden_run() -> String {
    topo_golden_run(Arc::new(Mecs::new(4, 4, 4)))
}

/// A fixed-seed pseudo-circuit run on the bidirectional ring (8 routers,
/// alternating-core/bank CMP layout). Pinned when the topology-neutral
/// `RouteMode` layer landed: the ring's CW/CCW direction modes and dateline
/// VC classes run through exactly the code paths the mesh-family goldens
/// pin, so this report guards the generalized routing layer itself.
fn ring_golden_run() -> String {
    topo_golden_run(Arc::new(Ring::new(8, 1)))
}

/// A fixed-seed profiled-hybrid run on a 4×4 mesh (same floorplan as the
/// EVC golden). The default factory freezes its online profile at cycle
/// 1000 — inside the measurement window — so this report pins the profile
/// phase, the freeze, and the hot-flow circuit phase in one run.
fn hybrid_golden_run_at(metrics: MetricsLevel) -> String {
    golden_text(fft_report(
        Arc::new(Mesh::new(4, 4, 1)),
        paper(RoutingPolicy::Xy, VaPolicy::Dynamic),
        &PcRouterFactory::new(Scheme::hybrid()),
        metrics,
    ))
}

fn hybrid_golden_run() -> String {
    hybrid_golden_run_at(MetricsLevel::Off)
}

/// The low-buffer corner (2 VCs × 1 flit, as in Wu's ring-router study):
/// a held circuit's single downstream slot is often taken, so phase A
/// terminates circuits for credit exhaustion and phase G restores them
/// speculatively — the two mechanisms no paper-buffer golden fires.
fn shallow_config() -> NetworkConfig {
    NetworkConfig {
        vcs_per_port: 2,
        buffer_depth: 1,
        ..paper(RoutingPolicy::Xy, VaPolicy::Static)
    }
}

fn shallow_golden_report() -> SimReport {
    fft_report(
        Arc::new(Mesh::new(4, 4, 1)),
        shallow_config(),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        MetricsLevel::Off,
    )
}

#[test]
fn fixed_seed_cmp_run_matches_golden_report() {
    let actual = golden_run();
    let Some(expected) = golden_expectation(GOLDEN_PATH, &actual) else {
        return;
    };
    assert_eq!(
        actual, expected,
        "engine behaviour diverged from the golden seed-engine report"
    );
}

#[test]
fn fixed_seed_evc_run_matches_golden_report() {
    let actual = evc_golden_run();
    let Some(expected) = golden_expectation(EVC_GOLDEN_PATH, &actual) else {
        return;
    };
    assert_eq!(
        actual, expected,
        "EVC router behaviour diverged from its pre-kernel golden report"
    );
}

#[test]
fn fixed_seed_fbfly_run_matches_golden_report() {
    let actual = fbfly_golden_run();
    let Some(expected) = golden_expectation(FBFLY_GOLDEN_PATH, &actual) else {
        return;
    };
    assert_eq!(
        actual, expected,
        "flattened-butterfly behaviour diverged from its golden report"
    );
}

#[test]
fn fixed_seed_mecs_run_matches_golden_report() {
    let actual = mecs_golden_run();
    let Some(expected) = golden_expectation(MECS_GOLDEN_PATH, &actual) else {
        return;
    };
    assert_eq!(
        actual, expected,
        "MECS behaviour diverged from its golden report"
    );
}

#[test]
fn fixed_seed_ring_run_matches_golden_report() {
    let actual = ring_golden_run();
    let Some(expected) = golden_expectation(RING_GOLDEN_PATH, &actual) else {
        return;
    };
    assert_eq!(
        actual, expected,
        "ring behaviour diverged from its golden report"
    );
}

#[test]
fn fixed_seed_hybrid_run_matches_golden_report() {
    let actual = hybrid_golden_run();
    let Some(expected) = golden_expectation(HYBRID_GOLDEN_PATH, &actual) else {
        return;
    };
    assert_eq!(
        actual, expected,
        "profiled-hybrid behaviour diverged from its golden report"
    );
}

#[test]
fn fixed_seed_shallow_buffer_run_matches_golden_report() {
    let report = shallow_golden_report();
    let stats = report.router_stats;
    assert!(
        stats.pc_terminations_credit > 0 && stats.pc_speculative_restores > 0,
        "the shallow golden must fire credit termination and speculative restore: {stats:?}"
    );
    let actual = golden_text(report);
    let Some(expected) = golden_expectation(SHALLOW_GOLDEN_PATH, &actual) else {
        return;
    };
    assert_eq!(
        actual, expected,
        "low-buffer pseudo-circuit behaviour diverged from its golden report"
    );
}

#[test]
fn golden_run_is_internally_deterministic() {
    // Two in-process runs must agree exactly (guards against accidental
    // global state or iteration-order nondeterminism in the engine).
    assert_eq!(golden_run(), golden_run());
    assert_eq!(evc_golden_run(), evc_golden_run());
    assert_eq!(ring_golden_run(), ring_golden_run());
    assert_eq!(hybrid_golden_run(), hybrid_golden_run());
}

#[test]
fn full_metrics_do_not_perturb_the_hybrid_simulation() {
    let actual = hybrid_golden_run();
    if let Some(expected) = golden_expectation(HYBRID_GOLDEN_PATH, &actual) {
        assert_eq!(hybrid_golden_run_at(MetricsLevel::Full), expected);
    }
}

#[test]
fn full_metrics_do_not_perturb_the_simulation() {
    // Observability counters must be read-only taps: the same run at
    // `--metrics=full`, with the payload stripped, is byte-identical to the
    // metrics-off golden report. Any divergence means instrumentation
    // changed simulated behaviour.
    let actual = golden_run();
    if let Some(expected) = golden_expectation(GOLDEN_PATH, &actual) {
        assert_eq!(golden_run_at(MetricsLevel::Full), expected);
    }
}

#[test]
fn full_metrics_do_not_perturb_the_evc_simulation() {
    let actual = evc_golden_run();
    if let Some(expected) = golden_expectation(EVC_GOLDEN_PATH, &actual) {
        assert_eq!(evc_golden_run_at(MetricsLevel::Full), expected);
    }
}

#[test]
fn every_golden_configuration_and_a_saturated_mesh_conserve_flits_every_cycle() {
    // The flit, ownership and credit laws of `Simulation::audit`, checked
    // between every two cycles of the seven golden configurations (their
    // 2 500-cycle window and a stretch of drain) and of a mesh8x8 past
    // saturation, where every buffer fills and source queues grow — in
    // release builds too, where `Simulation::step` does not audit itself.
    let pc = PcRouterFactory::new(Scheme::pseudo_ps_bb());
    let evc = PcRouterFactory::new(Scheme::evc());
    let hybrid = PcRouterFactory::new(Scheme::hybrid());
    let (xy, o1turn) = (RoutingPolicy::Xy, RoutingPolicy::O1Turn);
    let (st, dy) = (VaPolicy::Static, VaPolicy::Dynamic);
    let fbfly = Arc::new(FlattenedButterfly::new(4, 4, 4));
    let goldens: [(SharedTopology, NetworkConfig, &dyn RouterFactory); 7] = [
        (Arc::new(Mesh::new(4, 4, 4)), paper(o1turn, dy), &pc),
        (Arc::new(Mesh::new(4, 4, 1)), paper(xy, dy), &evc),
        (fbfly, paper(xy, st), &pc),
        (Arc::new(Mecs::new(4, 4, 4)), paper(xy, st), &pc),
        (Arc::new(Ring::new(8, 1)), paper(xy, st), &pc),
        (Arc::new(Mesh::new(4, 4, 1)), paper(xy, dy), &hybrid),
        (Arc::new(Mesh::new(4, 4, 1)), shallow_config(), &pc),
    ];
    let saturated = noc_campaign::PointSpec {
        topology: "mesh8x8".into(),
        load: 0.30,
        ..noc_campaign::PointSpec::default()
    };
    let sims = goldens
        .into_iter()
        .map(|(topo, config, factory)| fft_simulation(topo, config, factory, MetricsLevel::Off))
        .chain([noc_campaign::build_simulation(&saturated, MetricsConfig::off()).unwrap()]);
    for mut sim in sims {
        for _ in 0..3_000 {
            sim.step();
            if let Err(violation) = sim.audit() {
                panic!("{}: {violation}", sim.topology().name());
            }
        }
    }
}
