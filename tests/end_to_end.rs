//! Cross-crate integration tests: full simulations over every router scheme,
//! topology family and traffic model.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_campaign::{PointSpec, SchemeChoice, SCHEME_NAMES};
use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::{FlattenedButterfly, Mecs, Mesh, Ring, SharedTopology};
use noc_traffic::{BenchmarkProfile, CmpTraffic, SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::{EvcRouterFactory, PcRouterFactory, Scheme};
use std::sync::Arc;

/// What most tests here run with: XY routing + static VA on the paper's
/// 4 VCs x 4 flits, a 2 000-cycle window, engine seed 99.
const XY_STATIC: NetworkConfig = NetworkConfig {
    vcs_per_port: 4,
    buffer_depth: 4,
    routing: RoutingPolicy::Xy,
    va_policy: VaPolicy::Static,
};
const PHASES: RunSpec = RunSpec {
    warmup: 500,
    measure: 2_000,
    drain: 20_000,
};
const SEED: u64 = 99;

#[test]
fn every_scheme_delivers_everything_on_every_topology() {
    let topologies: Vec<SharedTopology> = vec![
        Arc::new(Mesh::new(4, 4, 1)),
        Arc::new(Mesh::new(2, 2, 4)),
        Arc::new(Mecs::new(3, 3, 2)),
        Arc::new(FlattenedButterfly::new(3, 3, 2)),
        Arc::new(Ring::new(8, 1)),
    ];
    let mut ran = 0;
    for topo in topologies {
        for &name in SCHEME_NAMES {
            // The same name → factory mapping and validation `noc run` and
            // campaign points go through (XY routing, static VA).
            let point = PointSpec {
                scheme: SchemeChoice::parse(name).unwrap(),
                ..PointSpec::default()
            };
            if noc_campaign::validate(&point, topo.as_ref()).is_err() {
                assert_eq!((name, topo.name()), ("evc", "ring8"));
                continue;
            }
            let n = topo.num_nodes();
            let traffic =
                SyntheticTraffic::new(SyntheticPattern::UniformRandom, n / 2, 2, 3, 0.08, 5);
            let report = Simulation::new(
                topo.clone(),
                point.network_config(),
                Box::new(traffic),
                point.scheme.factory().as_ref(),
                SEED,
            )
            .run(PHASES);
            assert!(report.drained, "{} / {name}: stuck packets", topo.name());
            assert!(report.measured_delivered > 0);
            assert_eq!(report.measured_injected, report.measured_delivered);
            ran += 1;
        }
    }
    assert_eq!(ran, 5 * SCHEME_NAMES.len() - 1);
}

#[test]
fn latency_ordering_matches_the_paper() {
    // At low load: baseline >= pseudo >= pseudo+bb (strictly, with margin).
    let topo: SharedTopology = Arc::new(Mesh::new(6, 6, 1));
    let run = |scheme| {
        let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 6, 6, 5, 0.10, 17);
        let factory = PcRouterFactory::new(scheme);
        Simulation::new(topo.clone(), XY_STATIC, Box::new(traffic), &factory, SEED).run(PHASES)
    };
    let base = run(Scheme::baseline());
    let pseudo = run(Scheme::pseudo());
    let bb = run(Scheme::pseudo_ps_bb());
    assert!(
        base.avg_latency > pseudo.avg_latency,
        "base {} <= pseudo {}",
        base.avg_latency,
        pseudo.avg_latency
    );
    assert!(
        pseudo.avg_latency > bb.avg_latency,
        "pseudo {} <= bb {}",
        pseudo.avg_latency,
        bb.avg_latency
    );
    assert_eq!(base.reusability(), 0.0);
    assert!(pseudo.reusability() > 0.2);
    assert!(bb.bypass_rate() > 0.05);
}

#[test]
fn cmp_closed_loop_self_throttles_and_drains() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 4));
    let bench = *BenchmarkProfile::by_name("streamcluster").unwrap();
    let traffic = CmpTraffic::for_topology(topo.as_ref(), bench, 3).unwrap();
    let report = Simulation::new(
        topo,
        NetworkConfig::paper(),
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        1,
    )
    .run(RunSpec::new(500, 5_000, 100_000));
    assert!(report.drained, "coherence transactions must complete");
    assert!(report.measured_delivered > 500, "traffic flowed");
    // Self-throttling keeps the network out of saturation.
    assert!(report.avg_latency < 100.0, "latency {}", report.avg_latency);
}

#[test]
fn o1turn_survives_heavy_adversarial_traffic() {
    // Transpose at high load with O1TURN: the VC-class partition must keep
    // the network deadlock-free; the run must keep delivering.
    let topo: SharedTopology = Arc::new(Mesh::new(6, 6, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::Transpose, 6, 6, 5, 0.6, 23);
    let report = Simulation::new(
        topo,
        NetworkConfig::paper(), // O1TURN + dynamic VA
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        1,
    )
    .run(RunSpec::new(500, 3_000, 10_000));
    // Saturated, so not drained — but thousands of packets must still flow.
    assert!(
        report.delivered_packets > 2_000,
        "only {} delivered",
        report.delivered_packets
    );
}

#[test]
fn evc_router_integrates_with_the_builder() {
    let topo: SharedTopology = Arc::new(Mesh::new(6, 6, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 6, 6, 5, 0.10, 31);
    let config = NetworkConfig {
        va_policy: VaPolicy::Dynamic,
        ..XY_STATIC
    };
    let factory = EvcRouterFactory;
    let report = Simulation::new(topo, config, Box::new(traffic), &factory, SEED).run(PHASES);
    assert!(report.drained);
    assert!(report.router_stats.express_bypasses > 0);
}

#[test]
fn facade_crate_reexports_work() {
    use pseudo_circuit_repro::{base, core, hybrid, topology};
    let topo: base::NodeId = base::NodeId::new(1);
    assert_eq!(topo.index(), 1);
    let mesh = topology::Mesh::new(2, 2, 1);
    let _ = core::Scheme::paper_lineup();
    let _ = hybrid::HybridRouterFactory::default();
    assert_eq!(topology::Topology::num_routers(&mesh), 4);
}

#[test]
fn multidrop_topology_carries_multiflit_packets() {
    // MECS express channels with credits per drop position: long packets
    // crossing the full row exercise the per-sub credit books.
    let topo: SharedTopology = Arc::new(Mecs::new(4, 4, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::BitComplement, 4, 4, 5, 0.15, 77);
    let factory = PcRouterFactory::new(Scheme::pseudo_ps_bb());
    let report = Simulation::new(topo, XY_STATIC, Box::new(traffic), &factory, SEED).run(PHASES);
    assert!(report.drained);
    assert!(report.measured_delivered > 100);
}
