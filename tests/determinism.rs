//! Reproducibility: identical seeds give bit-identical experiment results,
//! different seeds differ; trace record/replay reproduces a run exactly.

use noc_sim::{NetworkConfig, RunSpec, SimReport, Simulation};
use noc_topology::{Mesh, SharedTopology};
use noc_traffic::{
    BenchmarkProfile, CmpTraffic, SyntheticPattern, SyntheticTraffic, TraceRecorder, TraceReplay,
    TrafficModel,
};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

/// One run at the paper's configuration (O1TURN + dynamic VA) over a
/// 2 000-cycle window; `seed` is the engine seed, the traffic brings its own.
fn run(
    topo: &SharedTopology,
    scheme: Scheme,
    traffic: impl TrafficModel + 'static,
    seed: u64,
) -> SimReport {
    Simulation::new(
        topo.clone(),
        NetworkConfig::paper(),
        Box::new(traffic),
        &PcRouterFactory::new(scheme),
        seed,
    )
    .run(RunSpec::new(300, 2_000, 20_000))
}

#[test]
fn same_seed_same_result() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 4));
    let bench = *BenchmarkProfile::by_name("fft").unwrap();
    let once = |seed| {
        let traffic = CmpTraffic::for_topology(topo.as_ref(), bench, 5).unwrap();
        run(&topo, Scheme::pseudo_ps_bb(), traffic, seed)
    };
    let a = once(42);
    let b = once(42);
    assert_eq!(a.avg_latency, b.avg_latency);
    assert_eq!(a.measured_delivered, b.measured_delivered);
    assert_eq!(a.router_stats, b.router_stats);
    assert_eq!(a.energy, b.energy);
}

#[test]
fn different_seed_different_result() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 1));
    let once = |seed| {
        let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 3, 0.2, seed);
        run(&topo, Scheme::pseudo_ps_bb(), traffic, seed)
    };
    let a = once(1);
    let b = once(2);
    assert_ne!(
        (a.avg_latency, a.measured_delivered),
        (b.avg_latency, b.measured_delivered)
    );
}

#[test]
fn recorded_trace_replays_identically() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 1));
    // Record an open-loop run.
    let inner = SyntheticTraffic::new(SyntheticPattern::Transpose, 4, 4, 5, 0.15, 9);
    let mut recorder = TraceRecorder::new(inner);
    let mut records = Vec::new();
    for cycle in 0..3_000 {
        recorder.generate(cycle, &mut |_r| {});
    }
    let (_inner, captured) = recorder.into_parts();
    records.extend(captured);
    assert!(!records.is_empty());

    // Round-trip through the text format.
    let mut buf = Vec::new();
    noc_traffic::trace::write_trace(&mut buf, &records).unwrap();
    let parsed = noc_traffic::trace::read_trace(&buf[..]).unwrap();
    assert_eq!(parsed, records);

    // Two replays through the full simulator are bit-identical.
    let replay = |records: Vec<noc_traffic::TraceRecord>| {
        let replay = TraceReplay::new("replay", records);
        run(&topo, Scheme::pseudo_ps_bb(), replay, 7)
    };
    let a = replay(parsed.clone());
    let b = replay(parsed);
    assert_eq!(a.avg_latency, b.avg_latency);
    assert_eq!(a.router_stats, b.router_stats);
    assert!(a.measured_delivered > 0);
}

#[test]
fn scheme_toggle_does_not_change_traffic() {
    // The same seed must generate the same packet population regardless of
    // the router scheme (injection counts match; only latency differs).
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 1));
    let with = |scheme| {
        let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 3, 0.1, 64);
        run(&topo, scheme, traffic, 11)
    };
    let base = with(Scheme::baseline());
    let full = with(Scheme::pseudo_ps_bb());
    assert_eq!(base.measured_injected, full.measured_injected);
}
