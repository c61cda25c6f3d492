//! Energy accounting and statistics invariants across full simulations.

use noc_base::{RouterId, RoutingPolicy, VaPolicy};
use noc_campaign::{build_simulation, PointSpec, SchemeChoice};
use noc_sim::{MetricsConfig, MetricsLevel, NetworkConfig, RunSpec, Simulation};
use noc_topology::{Mesh, SharedTopology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

/// `noc run --topology cmesh4x4 --traffic mgrid` (XY + static VA) under
/// `scheme`, 4 000 measured cycles, with `--metrics full`: the simulation as
/// the run left it, and its report. Instrumentation is passive, so the
/// stage histograms count the run's events a second way, beside the router
/// statistics the energy events derive from.
fn simulate(scheme: Scheme, seed: u64) -> (Simulation, noc_sim::SimReport) {
    let point = PointSpec {
        topology: "cmesh4x4".into(),
        traffic: "mgrid".into(),
        scheme: SchemeChoice::Pc(scheme),
        seed,
        warmup: 500,
        measure: 4_000,
        drain: 50_000,
        ..PointSpec::default()
    };
    let metrics = MetricsConfig::level(MetricsLevel::Full);
    let mut sim = build_simulation(&point, metrics).unwrap();
    let report = sim.run(point.run_spec());
    (sim, report)
}

fn run(scheme: Scheme, seed: u64) -> noc_sim::SimReport {
    simulate(scheme, seed).1
}

#[test]
fn buffer_bypassing_saves_buffer_energy() {
    let base = run(Scheme::baseline(), 5);
    let bb = run(Scheme::pseudo_ps_bb(), 5);
    let per_flit =
        |r: &noc_sim::SimReport| r.energy_pj() / r.router_stats.flit_traversals.max(1) as f64;
    let saving = 1.0 - per_flit(&bb) / per_flit(&base);
    assert!(
        saving > 0.02,
        "buffer bypassing should save energy: {saving}"
    );
    // Savings are bounded by the buffer share of router energy (~23.6%).
    assert!(saving < 0.25, "saving {saving} exceeds the buffer share");
    assert!(bb.energy.buffer_writes < base.energy.buffer_writes);
}

#[test]
fn pseudo_without_bb_saves_little_energy() {
    // Paper: "the pseudo-circuit schemes without buffer bypassing have
    // virtually no energy saving" (arbiters are 0.24% of router energy).
    let base = run(Scheme::baseline(), 6);
    let pseudo = run(Scheme::pseudo(), 6);
    let per_flit =
        |r: &noc_sim::SimReport| r.energy_pj() / r.router_stats.flit_traversals.max(1) as f64;
    let saving = (1.0 - per_flit(&pseudo) / per_flit(&base)).abs();
    assert!(saving < 0.02, "Pseudo alone changed energy by {saving}");
}

#[test]
fn energy_counters_are_flit_conserving() {
    let (sim, report) = simulate(Scheme::baseline(), 7);
    let e = report.energy;
    let stages = &report.observability.as_ref().expect("full metrics").stages;
    // A buffered traversal records one BW sample, every traversal one ST
    // sample. Baseline: every traversal reads a buffered flit.
    assert_eq!(e.buffer_reads, stages.bw.count());
    assert_eq!(e.crossbar_traversals, stages.st.count());
    assert_eq!(stages.bw.count(), stages.st.count());
    // Every flit written was read, or is still buffered when the run stops.
    let routers = 0..sim.topology().num_routers();
    let buffered: usize = routers
        .map(|i| sim.router(RouterId::new(i)).buffered_flits())
        .sum();
    assert!(buffered > 0, "the run stops with flits in the buffers");
    assert_eq!(e.buffer_writes, e.buffer_reads + buffered as u64);
}

#[test]
fn bypassed_flits_skip_the_buffer_entirely() {
    let report = run(Scheme::pseudo_ps_bb(), 8);
    let e = report.energy;
    let s = report.router_stats;
    let stages = &report.observability.as_ref().expect("full metrics").stages;
    // The derived buffer reads are the traversals that left a buffer (one
    // BW sample each; a bypass records none), the traversals all of them
    // (one ST sample each); and every buffered flit was written (with
    // residual in-flight slack at run end).
    assert_eq!(e.buffer_reads, stages.bw.count());
    assert_eq!(s.flit_traversals, stages.st.count());
    assert!(s.buffer_bypasses > 0 && stages.bw.count() < stages.st.count());
    assert!(e.buffer_writes + s.buffer_bypasses >= s.flit_traversals);
    assert!(
        e.buffer_writes + s.buffer_bypasses - s.flit_traversals <= 16 * 8 * 4 * 4,
        "residual buffered flits exceed network capacity"
    );
}

#[test]
fn reusability_and_rates_are_fractions() {
    let report = run(Scheme::pseudo_ps_bb(), 9);
    let s = report.router_stats;
    for v in [
        report.reusability(),
        report.bypass_rate(),
        report.xbar_locality(),
        report.end_to_end_locality,
        s.header_hit_rate(),
    ] {
        assert!((0.0..=1.0).contains(&v), "rate {v} out of range");
    }
    assert!(s.pc_reuses <= s.flit_traversals);
    assert!(s.buffer_bypasses <= s.pc_reuses);
    assert!(s.pc_header_reuses <= s.pc_reuses);
    assert!(s.header_traversals <= s.flit_traversals);
}

#[test]
fn throughput_reflects_measured_flits() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 4, 0.12, 3);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Dynamic,
        ..NetworkConfig::paper()
    };
    let factory = PcRouterFactory::new(Scheme::baseline());
    let report = Simulation::new(topo, config, Box::new(traffic), &factory, 1)
        .run(RunSpec::new(500, 4_000, 40_000));
    assert!(
        (report.throughput - 0.12).abs() < 0.03,
        "{}",
        report.throughput
    );
}
