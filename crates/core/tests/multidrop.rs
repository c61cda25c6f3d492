//! Pseudo-circuits on multidrop (MECS) channels: a circuit stores the drop
//! distance, so reuse requires the same target router, and credits are
//! tracked per drop position.

use noc_base::{
    Flit, FlitKind, NodeId, PacketClass, PacketId, PortIndex, RouteInfo, RouteMode, RouterId,
    RoutingPolicy, VaPolicy, VcIndex,
};
use noc_sim::{NetworkConfig, RouterModel, RouterOutputs};
use noc_topology::{Mecs, SharedTopology};
use pseudo_circuit::{PcHooks, PcRouter, Scheme};
use std::sync::Arc;

/// A 4x1 MECS row, concentration 1: router 0's east channel (port 2) has
/// three drop positions (routers 1, 2, 3).
fn router(scheme: Scheme) -> (PcRouter, SharedTopology) {
    let topo: SharedTopology = Arc::new(Mecs::new(4, 1, 1));
    let config = NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    (
        PcHooks::router(RouterId::new(0), topo.clone(), config, scheme, pool),
        topo,
    )
}

/// Allocates `f` in the router's pool and delivers it on `port`.
fn deliver(r: &mut PcRouter, port: PortIndex, f: Flit) {
    let fr = r.pool().alloc_serial(f);
    r.receive_flit(port, fr);
}

const EAST: PortIndex = PortIndex::new(2);

fn flit_to(packet: u64, dst: usize) -> Flit {
    let hops = dst as u8; // on a 4x1 row from router 0, drop distance == dst index
    Flit {
        packet: PacketId::new(packet),
        kind: FlitKind::Single,
        seq: 0,
        src: NodeId::new(0),
        dst: NodeId::new(dst),
        vc: VcIndex::new(dst % 4),
        route: RouteInfo::multidrop(EAST, hops),
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
fn multidrop_circuit_stores_drop_distance() {
    let (mut r, topo) = router(Scheme::pseudo());
    assert_eq!(topo.channel_len(RouterId::new(0), EAST), 3);
    deliver(&mut r, PortIndex::new(0), flit_to(1, 2));
    for c in 0..3 {
        step(&mut r, c);
    }
    let pc = r
        .hooks()
        .pseudo_unit()
        .live(PortIndex::new(0))
        .expect("circuit");
    assert_eq!(pc.out_port, EAST);
    assert_eq!(pc.hops, 2, "drop distance is part of the circuit");
}

#[test]
fn same_channel_different_drop_does_not_reuse() {
    let (mut r, _) = router(Scheme::pseudo());
    // Establish a circuit to router 2 on vc 2.
    deliver(&mut r, PortIndex::new(0), flit_to(1, 2));
    for c in 0..3 {
        step(&mut r, c);
    }
    // A packet to router 3 uses the same channel (EAST) but a different
    // drop position (and static VC 3): full pipeline, no reuse.
    deliver(&mut r, PortIndex::new(0), flit_to(2, 3));
    assert!(step(&mut r, 3).is_empty(), "BW");
    assert!(step(&mut r, 4).is_empty(), "VA/SA");
    let sent = step(&mut r, 5);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].hops, 3);
    assert_eq!(r.stats().pc_reuses, 0);
    // The grant re-established the circuit at the new drop distance.
    let pc = r
        .hooks()
        .pseudo_unit()
        .live(PortIndex::new(0))
        .expect("circuit");
    assert_eq!(pc.hops, 3);
}

#[test]
fn same_drop_position_reuses_in_two_cycles() {
    let (mut r, _) = router(Scheme::pseudo());
    deliver(&mut r, PortIndex::new(0), flit_to(1, 2));
    for c in 0..3 {
        step(&mut r, c);
    }
    deliver(&mut r, PortIndex::new(0), flit_to(2, 2));
    assert!(step(&mut r, 3).is_empty(), "BW");
    let sent = step(&mut r, 4);
    assert_eq!(sent.len(), 1, "reuse at cycle 4");
    assert_eq!(sent[0].hops, 2);
    assert_eq!(r.stats().pc_reuses, 1);
}

#[test]
fn per_drop_credits_are_independent() {
    let (mut r, _) = router(Scheme::pseudo());
    // Exhaust the 4 credits of (drop 2, vc 2).
    for i in 0..4 {
        deliver(&mut r, PortIndex::new(0), flit_to(i, 2));
    }
    let mut sent = 0;
    for c in 0..14 {
        sent += step(&mut r, c).len();
    }
    assert_eq!(sent, 4);
    // Traffic to drop 1 (vc 1) still flows: its credit pool is separate.
    deliver(&mut r, PortIndex::new(0), flit_to(10, 1));
    let mut sent = 0;
    for c in 14..20 {
        sent += step(&mut r, c).len();
    }
    assert_eq!(sent, 1, "other drop position unaffected by exhaustion");
}

#[test]
fn bypass_works_on_multidrop_channels() {
    let (mut r, _) = router(Scheme::pseudo_bb());
    deliver(&mut r, PortIndex::new(0), flit_to(1, 3));
    for c in 0..3 {
        step(&mut r, c);
    }
    deliver(&mut r, PortIndex::new(0), flit_to(2, 3));
    let sent = step(&mut r, 3);
    assert_eq!(sent.len(), 1, "arrival-cycle bypass");
    assert_eq!(sent[0].hops, 3);
    assert_eq!(r.stats().buffer_bypasses, 1);
}
