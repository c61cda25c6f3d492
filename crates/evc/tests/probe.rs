//! Direct cycle-level probes of the EVC router: latch timing, VC partition
//! discipline, and fallback behaviour.

use noc_base::{
    Credit, Flit, FlitKind, NodeId, PacketClass, PacketId, PortIndex, RouteInfo, RouteMode,
    RouterId, RoutingPolicy, VaPolicy, VcIndex,
};
use noc_evc::{EvcHooks, EvcRouter};
use noc_sim::{NetworkConfig, RouterModel, RouterOutputs};
use noc_topology::{Mesh, SharedTopology};
use std::sync::Arc;

fn config() -> NetworkConfig {
    NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Dynamic,
    }
}

/// Middle router (id 2) of a 5x1 row: east port is 2, west port is 4.
fn middle_router() -> (EvcRouter, SharedTopology) {
    let topo: SharedTopology = Arc::new(Mesh::new(5, 1, 1));
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    (
        EvcHooks::router(RouterId::new(2), topo.clone(), config(), 2, pool),
        topo,
    )
}

/// Allocates `f` in the router's pool and delivers it on `port`.
fn deliver(r: &mut EvcRouter, port: PortIndex, f: Flit) {
    let fr = r.pool().alloc_serial(f);
    r.receive_flit(port, fr);
}

const EAST: PortIndex = PortIndex::new(2);
const WEST_IN: PortIndex = PortIndex::new(4);

/// An eastbound flit entering router 2 headed for node 4, on an express VC.
fn express_flit(packet: u64, kind: FlitKind, seq: u16) -> Flit {
    Flit {
        packet: PacketId::new(packet),
        kind,
        seq,
        src: NodeId::new(0),
        dst: NodeId::new(4),
        vc: VcIndex::new(3), // EVC range is vcs/2..vcs = {2, 3}
        route: RouteInfo::new(EAST),
        mode: RouteMode::XY,
        class: 0,
        injected_at: 0,
        packet_class: PacketClass::Data,
        express_hops: 1,
    }
}

fn step(r: &mut EvcRouter, cycle: u64) -> Vec<noc_sim::SentFlit> {
    let mut out = RouterOutputs::default();
    r.step(cycle, &mut out);
    out.flits
}

#[test]
fn express_flit_latches_in_its_arrival_cycle() {
    let (mut r, _) = middle_router();
    deliver(&mut r, WEST_IN, express_flit(1, FlitKind::Single, 0));
    let sent = step(&mut r, 0);
    assert_eq!(sent.len(), 1, "latched through in the arrival cycle");
    assert_eq!(sent[0].out_port, EAST);
    assert_eq!(
        r.pool().get(sent[0].flit).express_hops,
        0,
        "hop count decremented"
    );
    assert_eq!(r.stats().express_bypasses, 1);
    assert_eq!(
        r.energy().buffer_writes,
        0,
        "no buffering on the latch path"
    );
}

#[test]
fn non_express_flit_takes_the_full_pipeline() {
    let (mut r, _) = middle_router();
    let mut f = express_flit(1, FlitKind::Single, 0);
    f.express_hops = 0;
    f.vc = VcIndex::new(0);
    deliver(&mut r, WEST_IN, f);
    assert!(step(&mut r, 0).is_empty(), "BW");
    assert!(step(&mut r, 1).is_empty(), "VA/SA");
    assert_eq!(step(&mut r, 2).len(), 1, "ST");
    assert_eq!(r.stats().express_bypasses, 0);
}

#[test]
fn express_stream_latches_flit_per_cycle() {
    let (mut r, _) = middle_router();
    let kinds = [FlitKind::Head, FlitKind::Body, FlitKind::Tail];
    let mut total = 0;
    for (c, kind) in kinds.into_iter().enumerate() {
        deliver(&mut r, WEST_IN, express_flit(7, kind, c as u16));
        total += step(&mut r, c as u64).len();
    }
    assert_eq!(total, 3, "whole packet latched, one flit per cycle");
    assert_eq!(r.stats().express_bypasses, 3);
    // The pass-through claim is released at the tail.
    let mut f = express_flit(8, FlitKind::Single, 0);
    f.vc = VcIndex::new(3);
    deliver(&mut r, WEST_IN, f);
    assert_eq!(step(&mut r, 3).len(), 1, "next packet can latch again");
}

#[test]
fn latch_fails_without_credit_and_falls_back() {
    let (mut r, _) = middle_router();
    // Drain all 4 credits of (EAST, vc 3) with express singles.
    for i in 0..4 {
        deliver(&mut r, WEST_IN, express_flit(i, FlitKind::Single, 0));
        assert_eq!(step(&mut r, i).len(), 1);
    }
    // The 5th express flit cannot latch: it must be buffered (fallback).
    deliver(&mut r, WEST_IN, express_flit(9, FlitKind::Single, 0));
    assert!(step(&mut r, 4).is_empty(), "no credit, no latch");
    assert_eq!(r.energy().buffer_writes, 1, "fallback wrote the buffer");
    // A returned credit lets the buffered flit proceed via normal VA/SA.
    r.receive_credit(EAST, Credit::new(VcIndex::new(3)));
    let mut sent = 0;
    for c in 5..9 {
        sent += step(&mut r, c).len();
    }
    assert_eq!(sent, 1, "fallback flit delivered hop-by-hop");
    assert_eq!(
        r.stats().express_bypasses,
        4,
        "the stalled flit was not a bypass"
    );
}

#[test]
#[should_panic(expected = "single-class routing")]
fn rejects_multi_class_routing() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 1, 1));
    let bad = NetworkConfig {
        routing: RoutingPolicy::O1Turn,
        ..config()
    };
    let pool = Arc::new(noc_base::FlitPool::new(16, 1));
    let _ = EvcHooks::router(RouterId::new(0), topo, bad, 2, pool);
}
