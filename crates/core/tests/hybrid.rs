//! Behavioural tests for the profiled-hybrid router: wormhole equivalence
//! during the profile window, circuit formation for hot flows after the
//! freeze, and the absence of circuits for cold traffic.

use noc_base::{NodeId, PacketClass, RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::{Mesh, Ring};
use noc_traffic::{PacketRequest, SyntheticPattern, SyntheticTraffic, TrafficModel};
use pseudo_circuit::{HybridRouterFactory, PcRouterFactory, Scheme};
use std::sync::Arc;

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

/// One packet of the same flow every `period` cycles for `count` packets.
fn periodic_flow(src: usize, dst: usize, period: u64, count: u64, len: u16) -> Script {
    Script((0..count).map(|i| (i * period, src, dst, len)).collect())
}

/// A hybrid router that never leaves the profile window behaves exactly
/// like the wormhole baseline: same latencies, same stats, same energy.
#[test]
fn unfrozen_hybrid_is_bit_identical_to_wormhole_baseline() {
    let topo = Arc::new(Mesh::new(4, 4, 1));
    let traffic = || SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 5, 0.08, 11);
    let spec = RunSpec::new(100, 400, 4_000);

    let factory = HybridRouterFactory {
        profile_cycles: u64::MAX, // freeze never happens within this run
        hot_threshold: 1,
    };
    let hybrid =
        Simulation::new(topo.clone(), config(), Box::new(traffic()), &factory, 7).run(spec);
    let baseline = Simulation::new(
        topo,
        config(),
        Box::new(traffic()),
        &PcRouterFactory::new(Scheme::baseline()),
        7,
    )
    .run(spec);

    assert_eq!(format!("{hybrid:#?}"), format!("{baseline:#?}"));
    assert!(hybrid.measured_delivered > 0);
}

/// A repeated flow profiled as hot gets a held circuit after the freeze:
/// later flits reuse it (SA-free hops), and neither speculation nor the
/// bypass latch ever fires.
#[test]
fn hot_flow_holds_a_circuit_after_the_freeze() {
    let topo = Arc::new(Mesh::new(8, 1, 1));
    let factory = HybridRouterFactory {
        profile_cycles: 200,
        hot_threshold: 3,
    };
    // 0 -> 7 every 20 cycles: ~10 headers per router in the profile window
    // (hot), then the same flow keeps running long after the freeze.
    let traffic = periodic_flow(0, 7, 20, 40, 4);
    let report = Simulation::new(topo.clone(), config(), Box::new(traffic), &factory, 3)
        .run(RunSpec::new(0, 800, 4_000));

    assert_eq!(report.measured_delivered, 40);
    assert!(
        report.router_stats.pc_reuses > 0,
        "hot flow never reused its circuit: {:?}",
        report.router_stats
    );
    assert_eq!(report.router_stats.pc_speculative_restores, 0);
    assert_eq!(report.router_stats.buffer_bypasses, 0);

    // The held circuit makes steady-state hops cheaper than the wormhole
    // baseline's 3-cycle pipeline.
    let baseline = Simulation::new(
        topo,
        config(),
        Box::new(periodic_flow(0, 7, 20, 40, 4)),
        &PcRouterFactory::new(Scheme::baseline()),
        3,
    )
    .run(RunSpec::new(0, 800, 4_000));
    assert!(
        report.avg_latency < baseline.avg_latency,
        "hybrid {} vs baseline {}",
        report.avg_latency,
        baseline.avg_latency
    );
}

/// Flows that never reach the hot threshold get no circuits: every hop runs
/// the plain wormhole pipeline, with nothing to reuse or terminate.
#[test]
fn cold_flows_form_no_circuits() {
    let topo = Arc::new(Mesh::new(4, 4, 1));
    let factory = HybridRouterFactory {
        profile_cycles: 100,
        hot_threshold: 3,
    };
    // Each flow sends exactly once (count 1 < threshold 3), before and
    // after the freeze alike.
    let traffic = Script(vec![
        (0, 0, 15, 4),
        (30, 3, 12, 4),
        (60, 5, 10, 4),
        (150, 15, 0, 4),
        (200, 12, 3, 4),
    ]);
    let report = Simulation::new(topo, config(), Box::new(traffic), &factory, 5)
        .run(RunSpec::new(0, 400, 4_000));

    assert_eq!(report.measured_delivered, 5);
    assert_eq!(report.router_stats.pc_reuses, 0);
    assert_eq!(report.router_stats.pc_terminations_conflict, 0);
    assert_eq!(report.router_stats.pc_terminations_credit, 0);
}

/// The hybrid scheme runs on the ring family too — the point of the
/// topology-neutral routing layer: dateline classes partition the VCs and
/// hot flows still hold circuits across the freeze.
#[test]
fn hybrid_rides_the_ring_topology() {
    let topo = Arc::new(Ring::new(8, 1));
    let factory = HybridRouterFactory {
        profile_cycles: 200,
        hot_threshold: 3,
    };
    // 0 -> 3 clockwise every 20 cycles, forever.
    let traffic = periodic_flow(0, 3, 20, 40, 4);
    let report = Simulation::new(topo, config(), Box::new(traffic), &factory, 9)
        .run(RunSpec::new(0, 800, 4_000));

    assert_eq!(report.measured_delivered, 40);
    assert!(report.router_stats.pc_reuses > 0);
    assert!(report.drained);
}
