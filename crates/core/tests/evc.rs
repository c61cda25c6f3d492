//! Behavioural tests for the EVC comparison router: express latch timing,
//! fallback under congestion, and the topology sensitivity the paper
//! exploits in its Fig. 14.

use noc_base::{NodeId, PacketClass, RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::Mesh;
use noc_traffic::{PacketRequest, SyntheticPattern, SyntheticTraffic, TrafficModel};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

const EVC: PcRouterFactory = PcRouterFactory::new(Scheme::evc());

struct Script(Vec<(u64, usize, usize, u16)>);

impl TrafficModel for Script {
    fn name(&self) -> &str {
        "script"
    }
    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        for &(at, src, dst, len) in &self.0 {
            if at == cycle {
                sink(PacketRequest {
                    src: NodeId::new(src),
                    dst: NodeId::new(dst),
                    len,
                    class: PacketClass::Data,
                });
            }
        }
    }
}

fn config() -> NetworkConfig {
    NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Dynamic,
    }
}

#[test]
fn express_flit_latches_through_intermediate_routers() {
    // 8x1 row, 0 -> 7: seven hops. The packet re-acquires an express segment
    // wherever >= 2 hops remain, so intermediate routers cost 1 cycle
    // instead of 3.
    let topo = Arc::new(Mesh::new(8, 1, 1));
    let mut evc_sim = Simulation::new(
        topo.clone(),
        config(),
        Box::new(Script(vec![(0, 0, 7, 1)])),
        &EVC,
        1,
    );
    let evc = evc_sim.run(RunSpec::new(0, 10, 200));

    let mut base_sim = Simulation::new(
        topo,
        config(),
        Box::new(Script(vec![(0, 0, 7, 1)])),
        &PcRouterFactory::new(Scheme::baseline()),
        1,
    );
    let base = base_sim.run(RunSpec::new(0, 10, 200));

    assert_eq!(evc.measured_delivered, 1);
    assert_eq!(base.measured_delivered, 1);
    assert!(
        evc.avg_latency + 4.0 <= base.avg_latency,
        "express should save several cycles: evc={} base={}",
        evc.avg_latency,
        base.avg_latency
    );
    assert!(evc.router_stats.express_bypasses >= 3);
}

#[test]
fn short_routes_never_go_express() {
    // A single-hop route cannot form a 2-hop segment.
    let topo = Arc::new(Mesh::new(2, 1, 1));
    let mut sim = Simulation::new(
        topo,
        config(),
        Box::new(Script(vec![(0, 0, 1, 3)])),
        &EVC,
        1,
    );
    let report = sim.run(RunSpec::new(0, 10, 100));
    assert_eq!(report.measured_delivered, 1);
    assert_eq!(report.router_stats.express_bypasses, 0);
}

#[test]
fn uniform_traffic_is_fully_delivered_with_evc() {
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.15, 11);
    let mut sim = Simulation::new(topo, config(), Box::new(traffic), &EVC, 3);
    let report = sim.run(RunSpec::new(500, 3_000, 20_000));
    assert!(report.drained, "all measured packets delivered");
    assert!(report.router_stats.express_bypasses > 0, "express used");
}

#[test]
fn evc_beats_baseline_on_the_mesh_at_low_load() {
    // Fig. 14(a): on an 8x8 mesh EVC improves latency.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let mk = || SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.08, 21);
    let mut evc_sim = Simulation::new(topo.clone(), config(), Box::new(mk()), &EVC, 5);
    let evc = evc_sim.run(RunSpec::new(500, 3_000, 20_000));
    let mut base_sim = Simulation::new(
        topo,
        config(),
        Box::new(mk()),
        &PcRouterFactory::new(Scheme::baseline()),
        5,
    );
    let base = base_sim.run(RunSpec::new(500, 3_000, 20_000));
    assert!(
        evc.avg_latency < base.avg_latency,
        "evc={} baseline={}",
        evc.avg_latency,
        base.avg_latency
    );
}

#[test]
fn concentrated_mesh_starves_express_channels() {
    // Fig. 14(b): on a 4x4 CMesh most routes are too short for express
    // segments, so under load EVC degenerates to half the VCs and stops
    // helping (the paper reports no average improvement there).
    let topo = Arc::new(Mesh::new(4, 4, 4));
    let mk = || SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.30, 33);
    let mut evc_sim = Simulation::new(topo.clone(), config(), Box::new(mk()), &EVC, 7);
    let evc = evc_sim.run(RunSpec::new(500, 3_000, 30_000));
    let mut base_sim = Simulation::new(
        topo,
        config(),
        Box::new(mk()),
        &PcRouterFactory::new(Scheme::baseline()),
        7,
    );
    let base = base_sim.run(RunSpec::new(500, 3_000, 30_000));
    assert!(evc.drained && base.drained);
    let express_rate =
        evc.router_stats.express_bypasses as f64 / evc.router_stats.flit_traversals as f64;
    assert!(
        express_rate < 0.25,
        "express should be much rarer on the CMesh than on the mesh: {express_rate}"
    );
    assert!(
        evc.avg_latency > base.avg_latency * 0.97,
        "EVC must not meaningfully beat the baseline on the CMesh: evc={} base={}",
        evc.avg_latency,
        base.avg_latency
    );
}

#[test]
fn multi_flit_express_packets_reassemble() {
    // Long packets across a long row, two flows sharing links.
    let topo = Arc::new(Mesh::new(8, 1, 1));
    let script = Script(vec![(0, 0, 7, 5), (1, 1, 6, 5), (2, 0, 7, 5)]);
    let mut sim = Simulation::new(topo, config(), Box::new(script), &EVC, 9);
    let report = sim.run(RunSpec::new(0, 50, 500));
    assert_eq!(report.measured_delivered, 3);
    assert!(report.drained);
}
