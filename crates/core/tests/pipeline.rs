//! White-box pipeline-timing tests for the pseudo-circuit router (the
//! paper's Fig. 6): 3-cycle baseline hops, 2-cycle pseudo-circuit hops,
//! 1-cycle buffer-bypass hops, plus termination and speculation behaviour.

use noc_base::{
    Flit, FlitKind, NodeId, PacketClass, PacketId, PortIndex, RouteInfo, RouteMode, RouterId,
    RoutingPolicy, VaPolicy, VcIndex,
};
use noc_sim::{NetworkConfig, RouterModel, RouterOutputs};
use noc_topology::{Mesh, SharedTopology};
use pseudo_circuit::{PcHooks, PcRouter, Scheme};
use std::sync::Arc;

fn config() -> NetworkConfig {
    NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    }
}

/// A 2x1 mesh with concentration 2: router 0 has local ports 0-1 and an
/// east port (index 3) toward router 1 where nodes 2 and 3 live.
fn router() -> (PcRouter, SharedTopology) {
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let r = PcHooks::router(
        RouterId::new(0),
        topo.clone(),
        config(),
        Scheme::baseline(),
        pool,
    );
    (r, topo)
}

fn router_with(scheme: Scheme) -> PcRouter {
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    PcHooks::router(RouterId::new(0), topo, config(), scheme, pool)
}

/// Allocates `f` in the router's pool and delivers it on `port`.
fn deliver(r: &mut PcRouter, port: PortIndex, f: Flit) {
    let fr = r.pool().alloc_serial(f);
    r.receive_flit(port, fr);
}

const EAST: PortIndex = PortIndex::new(3);

/// A single-flit packet from a local node toward node 2 (east).
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

/// Steps the router once, returning the flits it emitted.
fn step(r: &mut PcRouter, cycle: u64) -> Vec<noc_sim::SentFlit> {
    let mut out = RouterOutputs::default();
    r.step(cycle, &mut out);
    out.flits
}

/// The static VC that a packet headed to node 2 uses (dst 2 % 4 VCs).
const STATIC_VC: usize = 2;

#[test]
fn baseline_hop_takes_three_cycles() {
    let (mut r, _) = router();
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    assert!(step(&mut r, 0).is_empty(), "cycle 0 is BW");
    assert!(step(&mut r, 1).is_empty(), "cycle 1 is VA/SA");
    let sent = step(&mut r, 2);
    assert_eq!(sent.len(), 1, "cycle 2 is ST");
    assert_eq!(sent[0].out_port, EAST);
    let stats = r.stats();
    assert_eq!(stats.flit_traversals, 1);
    assert_eq!(stats.sa_grants, 1);
    assert_eq!(stats.va_grants, 1);
    assert_eq!(stats.pc_reuses, 0);
}

#[test]
fn baseline_charges_full_energy() {
    let (mut r, _) = router();
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    let e = r.energy();
    assert_eq!(e.buffer_writes, 1);
    assert_eq!(e.buffer_reads, 1);
    assert_eq!(e.crossbar_traversals, 1);
    assert!(e.arbitrations >= 1);
}

#[test]
fn pseudo_circuit_hop_takes_two_cycles() {
    let mut r = router_with(Scheme::pseudo());
    // First packet establishes the circuit (full pipeline).
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    // Fig. 4(a): the traversal left input 0's VC connected to EAST.
    let pc = r.hooks().pseudo_unit().live(PortIndex::new(0)).unwrap();
    assert_eq!((pc.in_vc, pc.out_port), (VcIndex::new(STATIC_VC), EAST));
    // Second packet on the same VC and route: BW at 3, reuse-ST at 4.
    deliver(&mut r, PortIndex::new(0), single_flit(2, 0, STATIC_VC));
    assert!(step(&mut r, 3).is_empty(), "cycle 3 is BW");
    let sent = step(&mut r, 4);
    assert_eq!(sent.len(), 1, "cycle 4 is compare+ST");
    assert_eq!(r.stats().pc_reuses, 1);
    assert_eq!(r.stats().buffer_bypasses, 0);
    assert_eq!(r.stats().sa_grants, 1, "second flit bypassed SA");
}

#[test]
fn buffer_bypass_hop_takes_one_cycle() {
    let mut r = router_with(Scheme::pseudo_bb());
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    let writes_before = r.energy().buffer_writes;
    deliver(&mut r, PortIndex::new(0), single_flit(2, 0, STATIC_VC));
    let sent = step(&mut r, 3);
    assert_eq!(sent.len(), 1, "arrival cycle is compare+ST");
    let stats = r.stats();
    assert_eq!(stats.pc_reuses, 1);
    assert_eq!(stats.buffer_bypasses, 1);
    assert_eq!(
        r.energy().buffer_writes,
        writes_before,
        "bypassed flit is charged no buffer write"
    );
}

#[test]
fn mismatched_route_falls_back_to_full_pipeline() {
    let mut r = router_with(Scheme::pseudo_ps_bb());
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    // Same input VC, but destined to local node 1 (ejection port 1).
    let mut other = single_flit(2, 0, 1);
    other.dst = NodeId::new(1);
    other.route = RouteInfo::new(PortIndex::new(1));
    other.vc = VcIndex::new(1); // static VC for dst 1
    deliver(&mut r, PortIndex::new(0), other);
    assert!(step(&mut r, 3).is_empty(), "BW cycle");
    assert!(step(&mut r, 4).is_empty(), "VA/SA cycle — no bypass");
    let sent = step(&mut r, 5);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].out_port, PortIndex::new(1));
    assert_eq!(r.stats().pc_reuses, 0, "mismatch must not reuse");
}

#[test]
fn conflicting_grant_terminates_the_circuit() {
    let mut r = router_with(Scheme::pseudo());
    // Input 0 establishes a circuit to EAST.
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    for c in 0..3 {
        step(&mut r, c);
    }
    assert_eq!(
        r.hooks().pseudo_unit().holder(EAST),
        Some(PortIndex::new(0))
    );
    // Input 1 claims the same output: grant terminates the old circuit.
    deliver(&mut r, PortIndex::new(1), single_flit(2, 1, STATIC_VC));
    for c in 3..6 {
        step(&mut r, c);
    }
    assert_eq!(
        r.hooks().pseudo_unit().holder(EAST),
        Some(PortIndex::new(1))
    );
    assert!(r.hooks().pseudo_unit().live(PortIndex::new(0)).is_none());
    assert_eq!(r.stats().pc_terminations_conflict, 1);
}

#[test]
fn credit_exhaustion_terminates_the_circuit() {
    let mut r = router_with(Scheme::pseudo());
    // Drain all 4 credits of the static VC toward EAST... the port has
    // 4 VCs x 4 credits; the circuit dies only when the whole port dries up,
    // so drain every VC by sending packets to destinations 2 (vc 2) with the
    // other VCs manually drained via packets of matching static VCs.
    // Simpler: send 16 single-flit packets to node 2 across all VCs by
    // varying the input VC? Static VA pins dst 2 -> vc 2, so instead drain
    // with 4 packets and then check per-VC behaviour: after 4 in-flight
    // flits the VC has no credit, and a 5th packet cannot reuse or be
    // granted, but the circuit itself survives (other VCs still have
    // credit).
    for i in 0..4 {
        deliver(&mut r, PortIndex::new(0), single_flit(i, 0, STATIC_VC));
    }
    let mut sent = 0;
    for c in 0..12 {
        sent += step(&mut r, c).len();
    }
    assert_eq!(sent, 4);
    assert!(r.hooks().pseudo_unit().live(PortIndex::new(0)).is_some());
    // 5th packet: no credit on vc 2 downstream -> waits buffered.
    deliver(&mut r, PortIndex::new(0), single_flit(9, 0, STATIC_VC));
    for c in 12..16 {
        assert!(step(&mut r, c).is_empty(), "no credit, no traversal");
    }
    // A credit return lets it proceed via reuse.
    r.receive_credit(EAST, noc_base::Credit::new(VcIndex::new(STATIC_VC)));
    let mut sent = 0;
    for c in 16..20 {
        sent += step(&mut r, c).len();
    }
    assert_eq!(sent, 1);
    // Packets 2-4 reused the circuit established by packet 1, and packet 9
    // reused it after the credit returned.
    assert_eq!(r.stats().pc_reuses, 4);
}

#[test]
fn whole_port_credit_exhaustion_kills_the_circuit() {
    // Shrink to 1 VC so port-level and VC-level exhaustion coincide.
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let cfg = NetworkConfig {
        vcs_per_port: 1,
        buffer_depth: 2,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, cfg, Scheme::pseudo(), pool);
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
    // Next step detects zero credits at the port and terminates the circuit.
    step(&mut r, 8);
    assert!(r.hooks().pseudo_unit().live(PortIndex::new(0)).is_none());
    assert!(r.stats().pc_terminations_credit >= 1);
}

#[test]
fn speculation_restores_circuits_on_congestion_relief() {
    // §IV.A: a circuit terminated by credit exhaustion is speculatively
    // re-established once the downstream router has credit again. Use a
    // single-VC port so port-level exhaustion is easy to trigger.
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let cfg = NetworkConfig {
        vcs_per_port: 1,
        buffer_depth: 2,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, cfg, Scheme::pseudo_ps(), pool);
    let mk = |packet: u64| {
        let mut f = single_flit(packet, 0, 0);
        f.vc = VcIndex::new(0);
        f
    };
    deliver(&mut r, PortIndex::new(0), mk(1));
    deliver(&mut r, PortIndex::new(0), mk(2));
    for c in 0..9 {
        step(&mut r, c);
    }
    assert!(
        r.hooks().pseudo_unit().live(PortIndex::new(0)).is_none(),
        "circuit dead after credit exhaustion"
    );
    // Congestion relief: the downstream returns a credit.
    r.receive_credit(EAST, noc_base::Credit::new(VcIndex::new(0)));
    step(&mut r, 9);
    assert!(
        r.hooks().pseudo_unit().live(PortIndex::new(0)).is_some(),
        "speculation revived the circuit"
    );
    assert_eq!(r.stats().pc_speculative_restores, 1);
    // A matching packet now reuses the restored circuit: BW + ST.
    deliver(&mut r, PortIndex::new(0), mk(3));
    assert!(step(&mut r, 10).is_empty(), "BW cycle");
    assert_eq!(step(&mut r, 11).len(), 1, "reuse-ST cycle");
    assert!(r.stats().pc_reuses >= 1);
}

#[test]
fn multi_flit_packet_keeps_vc_until_tail() {
    let (mut r, _) = router();
    let desc = noc_base::PacketDescriptor {
        id: PacketId::new(7),
        src: NodeId::new(0),
        dst: NodeId::new(2),
        len: 3,
        class: PacketClass::Data,
        created_at: 0,
    };
    for (cycle, seq) in (0..3u64).zip(0..3u16) {
        let mut f = desc.flit(seq);
        f.vc = VcIndex::new(STATIC_VC);
        f.route = RouteInfo::new(EAST);
        deliver(&mut r, PortIndex::new(0), f);
        step(&mut r, cycle);
    }
    let mut emissions = Vec::new();
    for c in 3..10 {
        for s in step(&mut r, c) {
            emissions.push((c, r.pool().get(s.flit).seq));
        }
    }
    // Head STs at cycle 2+... collected from cycle 3: body and tail stream
    // one per cycle in order.
    let seqs: Vec<u16> = emissions.iter().map(|&(_, s)| s).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "in-order: {seqs:?}");
    assert_eq!(r.stats().flit_traversals, 3);
}

#[test]
fn credits_are_returned_per_buffered_flit() {
    let (mut r, _) = router();
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, STATIC_VC));
    let mut credits = Vec::new();
    for c in 0..4 {
        let mut out = RouterOutputs::default();
        r.step(c, &mut out);
        credits.extend(out.credits);
    }
    assert_eq!(credits, vec![(PortIndex::new(0), VcIndex::new(STATIC_VC))]);
}

#[test]
fn baseline_never_creates_circuits() {
    let (mut r, _) = router();
    for i in 0..4 {
        deliver(&mut r, PortIndex::new(0), single_flit(i, 0, STATIC_VC));
    }
    for c in 0..16 {
        step(&mut r, c);
    }
    assert!(r.hooks().pseudo_unit().live(PortIndex::new(0)).is_none());
    assert_eq!(r.stats().pc_reuses, 0);
    assert_eq!(r.stats().flit_traversals, 4);
}

#[test]
fn dynamic_va_spreads_packets_across_vcs() {
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let cfg = NetworkConfig {
        va_policy: VaPolicy::Dynamic,
        routing: RoutingPolicy::Xy,
        vcs_per_port: 4,
        buffer_depth: 4,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, cfg, Scheme::baseline(), pool);
    // Two packets from the two local ports to node 2, arriving together:
    // dynamic VA must give them distinct output VCs.
    deliver(&mut r, PortIndex::new(0), single_flit(1, 0, 0));
    deliver(&mut r, PortIndex::new(1), single_flit(2, 1, 0));
    let mut sent = Vec::new();
    for c in 0..6 {
        sent.extend(step(&mut r, c));
    }
    assert_eq!(sent.len(), 2);
    assert_ne!(r.pool().get(sent[0].flit).vc, r.pool().get(sent[1].flit).vc);
}

#[test]
fn o1turn_va_respects_vc_class_partition() {
    // Deadlock freedom under O1TURN depends on XY-mode packets (class 0)
    // staying in VCs {0,1} and YX-mode packets (class 1) in VCs {2,3} at
    // every hop. Drive both classes through one router and check the VCs of
    // every emitted flit.
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let cfg = NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::O1Turn,
        va_policy: VaPolicy::Dynamic,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, cfg, Scheme::pseudo_ps_bb(), pool);
    for i in 0..6u64 {
        let class = (i % 2) as u8;
        let mut f = single_flit(i, 0, (class as usize) * 2); // in-vc within class
        f.class = class;
        f.mode = if class == 0 {
            RouteMode::XY
        } else {
            RouteMode::YX
        };
        deliver(&mut r, PortIndex::new(0), f);
    }
    let mut sent = Vec::new();
    for c in 0..40 {
        sent.extend(step(&mut r, c));
    }
    assert_eq!(sent.len(), 6, "all packets delivered");
    for s in &sent {
        let f = *r.pool().get(s.flit);
        let class = f.class;
        let vc = f.vc.index();
        let range = if class == 0 { 0..2 } else { 2..4 };
        assert!(
            range.contains(&vc),
            "class {class} flit emitted on vc {vc} (outside its partition)"
        );
    }
}

#[test]
#[should_panic(expected = "r2 has 65 input ports")]
fn a_router_wider_than_the_port_masks_is_rejected_by_name() {
    // Concentration 61 on a 2x2 mesh: 61 local ports plus four directions.
    let topo: SharedTopology = Arc::new(Mesh::new(2, 2, 61));
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let _ = PcHooks::router(RouterId::new(2), topo, config(), Scheme::baseline(), pool);
}
