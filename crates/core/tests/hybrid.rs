//! Behavioural tests for the profiled-hybrid router: wormhole equivalence
//! during the profile window, circuit formation for hot flows after the
//! freeze, the absence of circuits for cold traffic, a cold grant
//! tearing down the hot circuit it conflicts with, and a profile that
//! counts headers, not VA retries. The profile window is the hybrid's
//! constant one: cycles `0..1000`, after which a flow with 4 or more headers
//! at a router is hot there.

use noc_base::{
    Credit, Flit, FlitKind, FlitPool, NodeId, PacketClass, PacketId, PortIndex, RouteInfo,
    RouteMode, RouterId, RoutingPolicy, VaPolicy, VcIndex,
};
use noc_sim::{
    MetricsConfig, MetricsLevel, NetworkConfig, RouterBuildContext, RouterFactory, RouterModel,
    RouterOutputs, RunSpec, Simulation,
};
use noc_topology::{Mesh, Ring, SharedTopology};
use noc_traffic::{PacketRequest, SyntheticPattern, SyntheticTraffic, TrafficModel};
use pseudo_circuit::{PcRouterFactory, Scheme};
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

/// The cycle the profile window ends at.
const FREEZE: u64 = 1_000;

fn hybrid() -> PcRouterFactory {
    PcRouterFactory::new(Scheme::hybrid())
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
    // At most 900 cycles: the run ends inside the profile window.
    let spec = RunSpec::new(100, 400, 400);

    let hybrid =
        Simulation::new(topo.clone(), config(), Box::new(traffic()), &hybrid(), 7).run(spec);
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
    // 0 -> 7 every 20 cycles: 50 headers per router in the profile window
    // (hot), then the same flow keeps running as long after the freeze.
    let traffic = periodic_flow(0, 7, 20, 100, 4);
    let report = Simulation::new(topo.clone(), config(), Box::new(traffic), &hybrid(), 3)
        .run(RunSpec::new(0, 2_000, 4_000));

    assert_eq!(report.measured_delivered, 100);
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
        Box::new(periodic_flow(0, 7, 20, 100, 4)),
        &PcRouterFactory::new(Scheme::baseline()),
        3,
    )
    .run(RunSpec::new(0, 2_000, 4_000));
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
    // Each flow sends exactly once (count 1 < threshold 4), before and
    // after the freeze alike.
    let traffic = Script(vec![
        (0, 0, 15, 4),
        (300, 3, 12, 4),
        (600, 5, 10, 4),
        (1_050, 15, 0, 4),
        (1_100, 12, 3, 4),
    ]);
    let report = Simulation::new(topo, config(), Box::new(traffic), &hybrid(), 5)
        .run(RunSpec::new(0, 1_300, 4_000));

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
    // 0 -> 3 clockwise every 20 cycles, forever.
    let traffic = periodic_flow(0, 3, 20, 100, 4);
    let report = Simulation::new(topo, config(), Box::new(traffic), &hybrid(), 9)
        .run(RunSpec::new(0, 2_000, 4_000));

    assert_eq!(report.measured_delivered, 100);
    assert!(report.router_stats.pc_reuses > 0);
    assert!(report.drained);
}

/// Router 0 of a 2x1 mesh with concentration 2 under static VA, run alone:
/// local ports 0 and 1, the east port 3 toward nodes 2 and 3. Every flit it
/// sends is credited back at once, as by a downstream that never backs up.
struct Lone {
    router: Box<dyn RouterModel>,
    pool: Arc<FlitPool>,
    cycle: u64,
}

impl Lone {
    fn new() -> Self {
        let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
        let pool = Arc::new(FlitPool::new(64, 1));
        let router = hybrid().build(RouterBuildContext {
            id: RouterId::new(0),
            topology: &topo,
            config: &NetworkConfig {
                va_policy: VaPolicy::Static,
                ..config()
            },
            seed: 0,
            metrics: &MetricsConfig::level(MetricsLevel::Full),
            pool: &pool,
        });
        Self {
            router,
            pool,
            cycle: 0,
        }
    }

    fn send(&mut self, port: usize, flit: Flit) {
        let r = self.pool.alloc_serial(flit);
        self.router.receive_flit(PortIndex::new(port), r);
    }

    fn run_to(&mut self, end: u64) {
        while self.cycle < end {
            let mut out = RouterOutputs::default();
            self.router.step(self.cycle, &mut out);
            for sent in out.flits {
                let vc = self.pool.get(sent.flit).vc;
                let credit = Credit {
                    vc,
                    sub: sent.hops - 1,
                };
                self.router.receive_credit(sent.out_port, credit);
                self.pool.free(sent.flit);
            }
            self.cycle += 1;
        }
    }

    fn creations(&self) -> Vec<u64> {
        self.router.observation().unwrap().pc_creations
    }
}

/// A single-flit packet `src -> dst` on VC `vc`, leaving through `port`.
fn single_flit(packet: u64, src: usize, dst: usize, vc: usize, port: PortIndex) -> Flit {
    Flit {
        packet: PacketId::new(packet),
        kind: FlitKind::Single,
        seq: 0,
        src: NodeId::new(src),
        dst: NodeId::new(dst),
        vc: VcIndex::new(vc),
        route: RouteInfo::new(port),
        mode: RouteMode::XY,
        class: 0,
        injected_at: 0,
        packet_class: PacketClass::Data,
        express_hops: 0,
    }
}

/// After the freeze, a grant of a cold flow whose connection conflicts with
/// a hot flow's held circuit tears that circuit down and establishes none
/// of its own; before the freeze, a grant establishes nothing.
#[test]
fn a_cold_grant_terminates_the_hot_circuit_it_conflicts_with() {
    const EAST: PortIndex = PortIndex::new(3);
    let mut lone = Lone::new();

    // Profile window: four packets make node 0 -> node 2 (static VC 2) hot;
    // their grants establish nothing yet.
    for packet in 1..=4 {
        lone.send(0, single_flit(packet, 0, 2, 2, EAST));
        lone.run_to(packet * 5);
    }
    lone.run_to(FREEZE + 2);
    assert_eq!(lone.router.stats().flit_traversals, 4);
    assert_eq!(lone.creations(), [0; 6]);

    // After the freeze the hot flow's grant holds input 0 -> EAST.
    lone.send(0, single_flit(5, 0, 2, 2, EAST));
    lone.run_to(FREEZE + 5);
    assert_eq!(lone.creations(), [1, 0, 0, 0, 0, 0]);
    assert_eq!(lone.router.stats().pc_terminations_conflict, 0);

    // Node 1 -> node 3 (static VC 3) was never profiled: cold. Its grant
    // of input 1 -> EAST terminates the hot circuit and holds nothing.
    lone.send(1, single_flit(6, 1, 3, 3, EAST));
    lone.run_to(FREEZE + 8);
    let stats = lone.router.stats();
    assert_eq!(stats.flit_traversals, 6);
    assert_eq!(stats.sa_grants, 6);
    assert_eq!(stats.pc_terminations_conflict, 1);
    assert_eq!(stats.pc_terminations_credit, 0);
    assert_eq!(lone.creations(), [1, 0, 0, 0, 0, 0]);
    let observed = lone.router.observation().unwrap();
    assert_eq!(observed.term_conflict, [1, 0, 0, 0, 0, 0]);
}

/// The profile counts headers, one per hop, not VA attempts: a header that
/// waits for its output VC through the threshold's 4 or more cycles of the
/// profile window leaves its flow cold, so after the freeze its grant
/// establishes no circuit.
#[test]
fn a_header_held_off_va_leaves_its_flow_cold() {
    // Under static VA both flows below want output VC 2 on the east port.
    const EAST: PortIndex = PortIndex::new(3);
    let mut lone = Lone::new();
    let flit = |packet, src, kind, seq| Flit {
        kind,
        seq,
        ..single_flit(packet, src, 2, 2, EAST)
    };

    // Node 1 -> node 2: a two-flit packet whose header takes output VC 2
    // and holds it until its tail passes.
    lone.send(1, flit(1, 1, FlitKind::Head, 0));
    lone.run_to(1);
    // Node 0 -> node 2: its header waits for that VC from cycle 2 on.
    lone.send(0, single_flit(2, 0, 2, 2, EAST));
    lone.run_to(8);
    let stats = lone.router.stats();
    assert_eq!(stats.flit_traversals, 1, "the header is held off");
    assert_eq!(stats.va_grants, 1);
    // The tail frees the VC; the waiting header wins it once.
    lone.send(1, flit(1, 1, FlitKind::Tail, 1));
    lone.run_to(13);
    assert_eq!(lone.router.stats().flit_traversals, 3);
    assert_eq!(lone.router.stats().va_grants, 2);

    // After the freeze the node 0 -> node 2 flow, one header at this hop,
    // is cold: its grant holds no circuit.
    lone.run_to(FREEZE);
    lone.send(0, single_flit(3, 0, 2, 2, EAST));
    lone.run_to(FREEZE + 5);
    assert_eq!(lone.router.stats().flit_traversals, 4);
    assert_eq!(
        lone.creations(),
        [0; 6],
        "a retried header made its flow hot"
    );
}
