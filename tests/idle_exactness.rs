//! `RouterModel::is_idle` must be an *exact* step-is-no-op predicate: the
//! engine skips `step` for idle routers and fast-forwards over cycles where
//! everything is idle, so an inexact `true` silently changes simulated
//! behaviour (DESIGN.md §13). For every scheme the predicate is
//! `PipelineKernel::is_idle_base() && SchemeHooks::is_idle()`; this test
//! pins it against the reference that never skips anything — the same
//! routers behind a wrapper that always answers `false`.

use noc_base::{Credit, FlitRef, PortIndex};
use noc_campaign::{build_topology, build_traffic, prepare, PointSpec, SchemeChoice, SCHEME_NAMES};
use noc_energy::EnergyCounters;
use noc_sim::{
    RouterBuildContext, RouterFactory, RouterModel, RouterObservation, RouterOutputs, RouterStats,
    SimReport, Simulation, TraceRing,
};

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
    fn stats(&self) -> RouterStats {
        self.0.stats()
    }
    fn energy(&self) -> EnergyCounters {
        self.0.energy()
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
    Simulation::new(
        topo,
        point.network_config(),
        traffic.unwrap(),
        factory,
        point.seed,
    )
    .run(point.run_spec())
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
            // step must terminate the circuit (dropping that clause from
            // `PcHooks::is_idle` fails the third case, from
            // `HybridHooks::is_idle` the fourth).
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
                let skipping = run(&point, point.scheme.factory().as_ref());
                let stepped = run(&point, &NeverIdleFactory(point.scheme.factory()));
                assert!(skipping.drained && skipping.measured_delivered > 0);
                assert_eq!(
                    format!("{skipping:?}"),
                    format!("{stepped:?}"),
                    "{point}: an idle router's skipped step was not a no-op"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 4 * (2 * SCHEME_NAMES.len() - 1));
}
