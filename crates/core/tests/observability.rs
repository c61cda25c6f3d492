//! White-box tests for the per-router observability layer: hand-computed
//! counter values on single-router scenarios (the same 2x1-mesh rig as
//! `pipeline.rs`), lifecycle traces, and an end-to-end mesh run checking
//! that per-port counters reconcile exactly with the aggregate
//! `RouterStats` the simulator has always reported.

use noc_base::{
    Flit, FlitKind, NodeId, PacketClass, PacketId, PortIndex, RouteInfo, RouteMode, RouterId,
    RoutingPolicy, VaPolicy, VcIndex,
};
use noc_sim::{
    MetricsConfig, MetricsLevel, NetworkConfig, RouterModel, RouterOutputs, RunSpec, Simulation,
    TraceEventKind, TraceSpec,
};
use noc_topology::{Mesh, SharedTopology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::{PcHooks, PcRouter, PcRouterFactory, Scheme};
use std::sync::Arc;

const EAST: PortIndex = PortIndex::new(3);
const STATIC_VC: usize = 2;

fn full_metrics() -> MetricsConfig {
    MetricsConfig {
        level: MetricsLevel::Full,
        trace: Some(TraceSpec {
            routers: Vec::new(),
        }),
    }
}

/// An instrumented router on a 2x1 mesh with concentration 2 (local ports
/// 0-1, east port 3 toward nodes 2-3).
fn instrumented(scheme: Scheme, cfg: NetworkConfig) -> PcRouter {
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, cfg, scheme, pool);
    r.enable_metrics(&full_metrics());
    r
}

/// Allocates `f` in the router's pool and delivers it on `port`.
fn deliver(r: &mut PcRouter, port: PortIndex, f: Flit) {
    let fr = r.pool().alloc_serial(f);
    r.receive_flit(port, fr);
}

fn config() -> NetworkConfig {
    NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    }
}

fn single_flit(packet: u64, src: usize, vc: usize) -> Flit {
    Flit {
        packet: PacketId::new(packet),
        kind: FlitKind::Single,
        seq: 0,
        src: NodeId::new(src),
        dst: NodeId::new(2),
        vc: VcIndex::new(vc),
        route: RouteInfo::new(EAST),
        mode: RouteMode::XY,
        class: 0,
        injected_at: 0,
        packet_class: PacketClass::Data,
        express_hops: 0,
    }
}

fn step(r: &mut PcRouter, cycle: u64) -> Vec<noc_sim::SentFlit> {
    let mut out = RouterOutputs::default();
    r.step(cycle, &mut out);
    out.flits
}

#[test]
fn conflict_termination_is_attributed_to_the_victim_port() {
    let mut r = instrumented(Scheme::pseudo(), config());
    // Input 0 establishes a circuit to EAST over a full 3-cycle pipeline.
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    // Input 1 claims the same output; the grant evicts input 0's circuit.
    deliver(&mut r, PortIndex::new(1), single_flit(2, 1, STATIC_VC));
    for c in 3..6 {
        step(&mut r, c);
    }
    let o = r.observation().expect("metrics enabled");
    // Hand-computed ledger for the two-packet scenario:
    assert_eq!(
        o.traversals,
        vec![1, 1, 0, 0, 0, 0],
        "one flit per local input"
    );
    assert_eq!(
        o.sa_grants,
        vec![1, 1, 0, 0, 0, 0],
        "both arbitrated (no reuse)"
    );
    assert_eq!(o.va_grants, vec![1, 1, 0, 0, 0, 0]);
    assert_eq!(
        o.pc_creations,
        vec![1, 1, 0, 0, 0, 0],
        "each grant built a circuit"
    );
    assert_eq!(
        o.pc_hits,
        vec![0, 0, 0, 0, 0, 0],
        "different inputs never reuse"
    );
    assert_eq!(
        o.term_conflict,
        vec![1, 0, 0, 0, 0, 0],
        "input 0 lost its circuit to input 1's grant"
    );
    assert_eq!(o.term_credit, vec![0, 0, 0, 0, 0, 0]);
    // The counters agree with the aggregate stats the router always kept.
    assert_eq!(r.stats().pc_terminations_conflict, 1);
    assert_eq!(o.terminations(), (1, 0));
    // Baseline hops take 3 cycles inclusive (paper Fig. 6): both ST samples
    // land in the (2, 4] power-of-two bucket.
    assert_eq!(o.stages.st.count(), 2);
    assert_eq!(o.stages.st.iter().collect::<Vec<_>>(), vec![(4, 2)]);
    // The lifecycle trace recorded both establishments and the eviction.
    let tracer = r.tracer().expect("tracing enabled");
    let kinds: Vec<TraceEventKind> = tracer.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            TraceEventKind::Establish,
            TraceEventKind::TerminateConflict,
            TraceEventKind::Establish,
        ]
    );
}

#[test]
fn credit_exhaustion_termination_is_counted_per_port() {
    // 1 VC x 2-flit buffers: draining both credits dries out the whole EAST
    // port and the creditless-circuit scan must terminate the circuit.
    let cfg = NetworkConfig {
        vcs_per_port: 1,
        buffer_depth: 2,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let mut r = instrumented(Scheme::pseudo(), cfg);
    let mk = |packet: u64| {
        let mut f = single_flit(packet, 0, 0);
        f.vc = VcIndex::new(0);
        f
    };
    deliver(&mut r, PortIndex::new(0), mk(1));
    deliver(&mut r, PortIndex::new(0), mk(2));
    let mut sent = 0;
    for c in 0..8 {
        sent += step(&mut r, c).len();
    }
    assert_eq!(sent, 2, "both credits spent");
    step(&mut r, 8); // creditless scan fires here
    let o = r.observation().unwrap();
    assert_eq!(
        o.term_credit,
        vec![1, 0, 0, 0, 0, 0],
        "input 0 held the circuit"
    );
    assert_eq!(o.term_conflict, vec![0, 0, 0, 0, 0, 0]);
    assert_eq!(
        o.pc_creations,
        vec![1, 0, 0, 0, 0, 0],
        "reuse is not a creation"
    );
    assert_eq!(
        o.pc_hits,
        vec![1, 0, 0, 0, 0, 0],
        "second flit reused the circuit"
    );
    assert_eq!(r.stats().pc_terminations_credit, o.terminations().1);
    let kinds: Vec<TraceEventKind> = r.tracer().unwrap().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceEventKind::TerminateCredit));
}

#[test]
fn bypass_hits_count_in_both_hit_and_bypass_ledgers() {
    let mut r = instrumented(Scheme::pseudo_bb(), config());
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    deliver(&mut r, PortIndex::new(0), single_flit(2, 0, STATIC_VC));
    assert_eq!(step(&mut r, 3).len(), 1, "1-cycle bypass hop");
    let o = r.observation().unwrap();
    assert_eq!(o.pc_hits, vec![1, 0, 0, 0, 0, 0]);
    assert_eq!(o.buffer_bypasses, vec![1, 0, 0, 0, 0, 0]);
    assert_eq!(o.traversals, vec![2, 0, 0, 0, 0, 0]);
    // The bypass hop contributes the 1-cycle ST sample of paper Fig. 6
    // (value 1 lands in the (1, 2] power-of-two bucket, vs (2, 4] for the
    // establishing 3-cycle hop).
    assert_eq!(o.stages.st.iter().collect::<Vec<_>>(), vec![(2, 1), (4, 1)]);
    let kinds: Vec<TraceEventKind> = r.tracer().unwrap().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceEventKind::BypassHit));
}

#[test]
fn disabled_metrics_observe_nothing() {
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, config(), Scheme::pseudo(), pool);
    r.enable_metrics(&MetricsConfig::off());
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    assert!(r.observation().is_none());
    assert!(r.tracer().is_none());
}

#[test]
fn mesh_run_counters_reconcile_with_router_stats() {
    // End-to-end: a 4x4 mesh under uniform-random traffic at full metrics.
    // Every per-port counter, summed over the network, must equal the
    // corresponding aggregate in RouterStats — the two are incremented at
    // the same call sites, so any drift is an instrumentation bug.
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 4, 0.15, 42);
    let report = Simulation::with_metrics(
        topo,
        NetworkConfig::paper(),
        MetricsConfig::level(MetricsLevel::Full),
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        42,
    )
    .run(RunSpec::new(200, 1_000, 10_000));
    let obs = report.observability.as_ref().expect("full metrics payload");
    assert_eq!(obs.routers.len(), 16);
    let s = report.router_stats;

    let sum = |field: fn(&noc_sim::RouterObservation) -> u64| -> u64 {
        obs.routers.iter().map(field).sum()
    };
    assert!(s.flit_traversals > 0, "network actually carried traffic");
    assert_eq!(sum(|r| r.total_traversals()), s.flit_traversals);
    assert_eq!(sum(|r| r.total_hits()), s.pc_reuses);
    assert_eq!(sum(|r| r.total_bypasses()), s.buffer_bypasses);
    assert_eq!(sum(|r| r.sa_grants.iter().sum()), s.sa_grants);
    assert_eq!(sum(|r| r.va_grants.iter().sum()), s.va_grants);
    assert_eq!(sum(|r| r.restores.iter().sum()), s.pc_speculative_restores);
    let (conflict, credit) = obs.terminations();
    assert_eq!(conflict, s.pc_terminations_conflict);
    assert_eq!(credit, s.pc_terminations_credit);
    assert_eq!(
        conflict + credit,
        s.pc_terminations_conflict + s.pc_terminations_credit,
        "cause breakdown sums to total terminations"
    );
    // Stage histograms: every traversal contributes exactly one ST sample,
    // and SA waits exist only for arbitrated (non-reuse) traversals.
    assert_eq!(obs.stages.st.count(), s.flit_traversals);
    assert_eq!(obs.stages.sa.count(), s.flit_traversals - s.pc_reuses);
    // VA waits are sampled at traversal time, so headers still buffered when
    // the run ends (the final backlog) hold a VA grant without a sample.
    let va_sampled = obs.stages.va.count();
    assert!(va_sampled <= s.va_grants);
    assert!(
        s.va_grants - va_sampled <= report.final_backlog,
        "unsampled VA grants ({}) exceed the leftover backlog ({})",
        s.va_grants - va_sampled,
        report.final_backlog
    );
    // Hits skip SA, so the network hit rate matches the paper's
    // reusability metric computed from the aggregate stats.
    let expected = s.pc_reuses as f64 / s.flit_traversals as f64;
    assert!((obs.hit_rate() - expected).abs() < 1e-12);
}
