//! The test model's own tests: the ideal wire router against hop
//! arithmetic on every topology family, and the lookahead-route helper it
//! forwards by.

mod test_model;

use noc_base::{NodeId, PacketClass, PortIndex, RouteMode, RouterId, RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::{FlattenedButterfly, Mecs, Mesh};
use noc_traffic::{PacketRequest, SyntheticPattern, SyntheticTraffic, TrafficModel};
use std::sync::Arc;
use test_model::{lookahead_route, WireRouterFactory};

/// A traffic model emitting a fixed list of (cycle, src, dst, len).
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
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Dynamic,
        ..NetworkConfig::paper()
    }
}

#[test]
fn single_packet_latency_matches_hop_arithmetic() {
    // 4x1 mesh, node 0 -> node 3: 3 router-to-router hops, 4 routers.
    // Timeline with 1-cycle wire routers: inject at cycle 0, flit reaches
    // router at 1, leaves at 2 (delay 1), per additional router +2
    // (1 link + 1 router), finally NI ejection link +1.
    let topo = Arc::new(Mesh::new(4, 1, 1));
    let script = Script(vec![(0, 0, 3, 1)]);
    let mut sim = Simulation::new(
        topo,
        config(),
        Box::new(script),
        &WireRouterFactory::default(),
        1,
    );
    let report = sim.run(RunSpec::new(0, 10, 100));
    assert_eq!(report.measured_delivered, 1);
    // inject(0) -> r0 arrive 1, depart 2 -> r1 arrive 3, depart 4 ->
    // r2 arrive 5, depart 6 -> r3 arrive 7, depart 8 -> NI at 9.
    assert_eq!(report.avg_latency, 9.0);
    assert!(report.drained);
}

#[test]
fn same_router_delivery_works() {
    let topo = Arc::new(Mesh::new(2, 2, 2));
    let script = Script(vec![(0, 0, 1, 2)]);
    let mut sim = Simulation::new(
        topo,
        config(),
        Box::new(script),
        &WireRouterFactory::default(),
        1,
    );
    let report = sim.run(RunSpec::new(0, 10, 50));
    assert_eq!(report.measured_delivered, 1);
    // inject head 0/tail 1; tail: arrive router 2, depart 3, NI 4.
    assert_eq!(report.avg_latency, 4.0);
}

#[test]
fn all_packets_delivered_on_every_topology() {
    for topo in [
        Arc::new(Mesh::new(4, 4, 1)) as Arc<dyn noc_topology::Topology>,
        Arc::new(Mesh::new(2, 2, 4)),
        Arc::new(FlattenedButterfly::new(4, 4, 1)),
        Arc::new(Mecs::new(4, 4, 1)),
    ] {
        let n = topo.num_nodes();
        let cols = 4;
        let traffic =
            SyntheticTraffic::new(SyntheticPattern::UniformRandom, cols, n / cols, 3, 0.05, 5);
        let name = topo.name().to_string();
        let mut sim = Simulation::new(
            topo,
            config(),
            Box::new(traffic),
            &WireRouterFactory::default(),
            9,
        );
        let report = sim.run(RunSpec::new(200, 1000, 3_000));
        assert!(report.drained, "{name}: measured packets stuck");
        assert!(report.measured_delivered > 0, "{name}: nothing delivered");
        assert_eq!(report.measured_injected, report.measured_delivered);
    }
}

#[test]
fn credits_sustain_long_streams() {
    // A long stream through one path exhausts 4 credits unless they are
    // returned; delivery of a 64-flit packet proves the credit loop.
    let topo = Arc::new(Mesh::new(2, 1, 1));
    let script = Script(vec![(0, 0, 1, 64)]);
    let mut sim = Simulation::new(
        topo,
        config(),
        Box::new(script),
        &WireRouterFactory::default(),
        1,
    );
    let report = sim.run(RunSpec::new(0, 200, 600));
    assert_eq!(report.measured_delivered, 1);
    assert!(report.drained);
}

#[test]
fn wire_router_counts_locality() {
    // Two consecutive packets along the same path produce crossbar
    // locality hits at intermediate routers.
    let topo = Arc::new(Mesh::new(3, 1, 1));
    let script = Script(vec![(0, 0, 2, 2), (10, 0, 2, 2)]);
    let mut sim = Simulation::new(
        topo,
        config(),
        Box::new(script),
        &WireRouterFactory::default(),
        1,
    );
    let report = sim.run(RunSpec::new(0, 40, 100));
    assert_eq!(report.measured_delivered, 2);
    let s = report.router_stats;
    assert!(s.xbar_locality_total > 0);
    assert_eq!(
        s.xbar_locality_hits, s.xbar_locality_total,
        "identical routes must be 100% locality"
    );
}

#[test]
fn mecs_multidrop_delivery() {
    // On MECS, 0 -> 3 in one row is a single express hop of distance 3.
    let topo = Arc::new(Mecs::new(4, 1, 1));
    let script = Script(vec![(0, 0, 3, 1)]);
    let mut sim = Simulation::new(
        topo,
        config(),
        Box::new(script),
        &WireRouterFactory::default(),
        1,
    );
    let report = sim.run(RunSpec::new(0, 10, 50));
    assert_eq!(report.measured_delivered, 1);
    // inject 0 -> r0 at 1, depart 2 -> r3 at 3, depart 4 -> NI 5.
    assert_eq!(report.avg_latency, 5.0);
}

#[test]
fn throughput_counts_measured_flits() {
    let topo = Arc::new(Mesh::new(2, 2, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 2, 2, 2, 0.1, 3);
    let mut sim = Simulation::new(
        topo,
        config(),
        Box::new(traffic),
        &WireRouterFactory::default(),
        4,
    );
    let report = sim.run(RunSpec::new(100, 2000, 2_000));
    assert!(
        report.throughput > 0.05 && report.throughput < 0.2,
        "throughput {} should approximate offered load 0.1",
        report.throughput
    );
}

#[test]
fn lookahead_is_next_routers_route() {
    let mesh = Mesh::new(4, 4, 1);
    // Router 0 sends east toward node 2: next router is 1, whose XY route
    // toward node 2 is east again (port concentration + 1 = 2).
    let route = lookahead_route(
        &mesh,
        RouterId::new(0),
        PortIndex::new(2),
        1,
        NodeId::new(2),
        RouteMode::XY,
    );
    assert_eq!(route.port, PortIndex::new(2));
    // Toward node 1 the next router *is* the destination: local port 0.
    let route = lookahead_route(
        &mesh,
        RouterId::new(0),
        PortIndex::new(2),
        1,
        NodeId::new(1),
        RouteMode::XY,
    );
    assert_eq!(route.port, PortIndex::new(0));
}

#[test]
#[should_panic(expected = "dead channel")]
fn lookahead_rejects_dead_channels() {
    let mesh = Mesh::new(2, 2, 1);
    // Router 0 has no west link (port 1+3 = 4).
    let _ = lookahead_route(
        &mesh,
        RouterId::new(0),
        PortIndex::new(4),
        1,
        NodeId::new(1),
        RouteMode::XY,
    );
}
