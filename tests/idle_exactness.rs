//! `RouterModel::is_idle` must be an *exact* step-is-no-op predicate: the
//! engine skips `step` for idle routers and fast-forwards over cycles where
//! everything is idle, so an inexact `true` silently changes simulated
//! behaviour (DESIGN.md §13). For every scheme the predicate is
//! `PipelineKernel::is_idle_base() && SchemeHooks::is_idle()`; this test
//! pins it against the reference that never skips anything — the same
//! routers behind a wrapper that always answers `false` — which is also the
//! reference for the wake rule, since the wrapper makes every credit wake
//! its router.
//!
//! The engine asks a router after each of its steps, and again after each
//! credit it delivers to a router the last answer skipped; it skips the
//! router until its next flit while the answer is `true` (DESIGN.md §10).
//! The second test pins which cycles that leaves a router stepped in when
//! its only work is scheme state.

use noc_base::{
    Credit, FlitRef, NodeId, PacketClass, PortIndex, RouterId, RoutingPolicy, VaPolicy,
};
use noc_campaign::{build_topology, build_traffic, prepare, PointSpec, SchemeChoice, SCHEME_NAMES};
use noc_sim::{
    NetworkConfig, RouterBuildContext, RouterFactory, RouterModel, RouterObservation,
    RouterOutputs, RouterStats, SimReport, Simulation, TraceRing,
};
use noc_topology::Mesh;
use noc_traffic::{PacketRequest, TrafficModel};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::{Arc, Mutex};

/// Delegates everything to the wrapped router but is never idle, so the
/// engine steps it every cycle and never fast-forwards.
struct NeverIdle(Box<dyn RouterModel>);

impl RouterModel for NeverIdle {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        self.0.receive_flit(in_port, flit);
    }
    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        self.0.receive_credit(out_port, credit);
    }
    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        self.0.step(cycle, out);
    }
    fn is_idle(&self) -> bool {
        false
    }
    fn buffered_flits(&self) -> usize {
        self.0.buffered_flits()
    }
    fn stats(&self) -> RouterStats {
        self.0.stats()
    }
    fn observation(&self) -> Option<RouterObservation> {
        self.0.observation()
    }
    fn tracer(&self) -> Option<&TraceRing> {
        self.0.tracer()
    }
}

struct NeverIdleFactory(Box<dyn RouterFactory>);

impl RouterFactory for NeverIdleFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        Box::new(NeverIdle(self.0.build(ctx)))
    }
}

fn run(point: &PointSpec, factory: &dyn RouterFactory) -> SimReport {
    let topo = build_topology(&point.topology).unwrap();
    let traffic = build_traffic(&point.traffic, point.load, point.packet, point.seed, &topo);
    let mut sim = Simulation::new(
        topo,
        point.network_config(),
        traffic.unwrap(),
        factory,
        point.seed,
    );
    sim.run(point.run_spec())
}

fn assert_skipping_is_exact(point: &PointSpec) {
    let skipping = run(point, point.scheme.factory().as_ref());
    let stepped = run(point, &NeverIdleFactory(point.scheme.factory()));
    assert!(skipping.drained && skipping.measured_delivered > 0);
    assert_eq!(
        format!("{skipping:?}"),
        format!("{stepped:?}"),
        "{point}: an idle router's skipped step was not a no-op"
    );
}

#[test]
fn skipping_idle_routers_never_changes_a_report() {
    let mut compared = 0;
    for &name in SCHEME_NAMES {
        for topology in ["mesh4x4", "ring8"] {
            // Sparse traffic, so routers sit idle between packets while
            // holding live circuits and speculation history. Uniform random
            // keeps tearing circuits down; bit-complement repeats each
            // node's one flow, which the hybrid profile marks hot — and its
            // routers idle across the freeze at cycle 1000. With one- or
            // two-flit buffers under moderate load, a reuse or bypass
            // traversal now and then spends a port's last credit as it
            // empties the router: idle by the kernel's clause, but the next
            // step must terminate the circuit (dropping the credit clause
            // from `PcHooks::is_idle` fails the third case, and dropping it
            // for the hybrid only, which runs the same hooks, the fourth).
            for (traffic, load, buffer) in [
                ("ur", 0.02, 4),
                ("bc", 0.03, 4),
                ("ur", 0.15, 1),
                ("ur", 0.2, 2),
            ] {
                let point = PointSpec {
                    topology: topology.into(),
                    traffic: traffic.into(),
                    scheme: SchemeChoice::parse(name).unwrap(),
                    vcs: 2,
                    buffer,
                    load,
                    packet: 3,
                    seed: 11,
                    warmup: 0,
                    measure: 6_000,
                    drain: 20_000,
                    ..PointSpec::default()
                };
                if prepare(&point).is_err() {
                    assert_eq!((name, topology), ("evc", "ring8"));
                    continue;
                }
                assert_skipping_is_exact(&point);
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 4 * (2 * SCHEME_NAMES.len() - 1));
}

/// Logs the cycles in which each wrapped router is stepped.
struct StepLog(Box<dyn RouterModel>, usize, Arc<Mutex<Vec<Vec<u64>>>>);

impl RouterModel for StepLog {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        self.0.receive_flit(in_port, flit);
    }
    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        self.0.receive_credit(out_port, credit);
    }
    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        self.2.lock().unwrap()[self.1].push(cycle);
        self.0.step(cycle, out);
    }
    fn is_idle(&self) -> bool {
        self.0.is_idle()
    }
    fn buffered_flits(&self) -> usize {
        self.0.buffered_flits()
    }
    fn stats(&self) -> RouterStats {
        self.0.stats()
    }
}

struct StepLogFactory(PcRouterFactory, Arc<Mutex<Vec<Vec<u64>>>>);

impl RouterFactory for StepLogFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        let id = ctx.id.index();
        Box::new(StepLog(self.0.build(ctx), id, self.1.clone()))
    }
}

/// Single-flit packets from node 0 to node 1, at cycles 0 and 3.
struct TwoPackets;

impl TrafficModel for TwoPackets {
    fn name(&self) -> &str {
        "two-packets"
    }
    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        if cycle == 0 || cycle == 3 {
            sink(PacketRequest {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                len: 1,
                class: PacketClass::Data,
            });
        }
    }
}

#[test]
fn scheme_state_alone_keeps_a_router_stepping_exactly_as_long_as_it_changes() {
    // Two routers, one VC with a two-flit buffer. At router 0 the first
    // flit's SA grant spends one credit of the east port and establishes a
    // circuit; the second flit rides it through the bypass latch and spends
    // the other. Router 0 then holds no flit, only a circuit with no credit
    // behind it, and no event reaches it until router 1 forwards the first
    // flit and its credit comes back.
    let config = NetworkConfig {
        vcs_per_port: 1,
        buffer_depth: 2,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let log = Arc::new(Mutex::new(vec![Vec::new(); 2]));
    let factory = StepLogFactory(PcRouterFactory::new(Scheme::pseudo_ps_bb()), log.clone());
    let mut sim = Simulation::new(
        Arc::new(Mesh::new(2, 1, 1)),
        config,
        Box::new(TwoPackets),
        &factory,
        1,
    );
    for _ in 0..40 {
        sim.step();
    }
    let stats = sim.router(RouterId::new(0)).stats();
    assert_eq!(stats.pc_terminations_credit, 1);
    assert_eq!(stats.pc_speculative_restores, 1);
    // Cycles 1-3: BW, VA and SA, ST of the first flit; cycle 4: the second
    // bypasses. Cycle 5, unscheduled: the creditless circuit is terminated,
    // and with no credit its history register is not restorable, so the
    // router certifies idleness and cycle 6 skips it. Cycle 7: the first
    // credit arrives and makes the history register restorable, so the
    // router is no longer idle and steps to restore the circuit; a held
    // circuit with credit is no work. Cycle 8: the second credit only
    // refills a counter of an idle router, so it schedules no step. Skipped
    // from then on.
    assert_eq!(stats.buffer_bypasses, 1);
    assert_eq!(log.lock().unwrap()[0], [1, 2, 3, 4, 5, 7]);
}
