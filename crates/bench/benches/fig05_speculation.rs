//! Fig. 5 — Pseudo-circuit speculation.
//!
//! The paper's Fig. 5 diagrams (a) speculative restoration of a recently
//! terminated circuit and (b) conflict resolution through the per-output
//! history register. This harness replays both on the pseudo-circuit unit
//! and on a live router (congestion-relief restoration, §IV.A condition 2).

use noc_base::{
    Credit, Flit, FlitKind, NodeId, PacketClass, PacketId, PortIndex, RouteInfo, RouteMode,
    RouterId, RoutingPolicy, VaPolicy, VcIndex,
};
use noc_bench::banner;
use noc_sim::{NetworkConfig, RouterModel, RouterOutputs};
use noc_topology::{Mesh, SharedTopology};
use pseudo_circuit::{PcHooks, PseudoCircuitUnit, Scheme, Termination};
use std::sync::Arc;

fn p(i: usize) -> PortIndex {
    PortIndex::new(i)
}

fn main() {
    banner(
        "Fig. 5",
        "speculative restoration (a) and history-register conflict resolution (b)",
    );

    println!("\n(a) unit-level: restore the most recently terminated circuit:");
    let mut unit = PseudoCircuitUnit::new(4, 4);
    unit.establish(p(0), VcIndex::new(3), p(2), 1);
    println!("  establish (in p0, vc 3) -> out p2");
    unit.terminate(p(0), Termination::CreditExhausted);
    println!("  terminate on credit exhaustion; history[p2] = p0");
    assert!(unit.try_restore(p(2)));
    let live = unit.live(p(0)).expect("restored");
    println!(
        "  restore: circuit back with its stored VC (vc {})",
        live.in_vc.index()
    );

    println!("\n(b) unit-level: the output's history register picks the claimant:");
    let mut unit = PseudoCircuitUnit::new(4, 4);
    unit.establish(p(0), VcIndex::new(0), p(2), 1);
    unit.establish(p(1), VcIndex::new(0), p(2), 1);
    println!("  p1 steals out p2 from p0 (both registers now point at p2)");
    unit.terminate(p(1), Termination::CreditExhausted);
    println!("  p1's circuit terminates; history[p2] = p1 (most recent)");
    assert!(unit.try_restore(p(2)));
    assert_eq!(unit.holder(p(2)), Some(p(1)));
    println!("  restore connects p2 only to the input the register indicates: p1");

    println!("\nrouter-level: congestion relief re-establishes the circuit:");
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let config = NetworkConfig {
        vcs_per_port: 1,
        buffer_depth: 2,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, config, Scheme::pseudo_ps(), pool);
    let east = p(3);
    let mk = |packet| Flit {
        packet: PacketId::new(packet),
        kind: FlitKind::Single,
        seq: 0,
        src: NodeId::new(0),
        dst: NodeId::new(2),
        vc: VcIndex::new(0),
        route: RouteInfo::new(east),
        mode: RouteMode::XY,
        class: 0,
        injected_at: 0,
        packet_class: PacketClass::Data,
        express_hops: 0,
    };
    let mut out = RouterOutputs::default();
    {
        let fr = r.pool().alloc_serial(mk(1));
        r.receive_flit(p(0), fr);
    }
    {
        let fr = r.pool().alloc_serial(mk(2));
        r.receive_flit(p(0), fr);
    }
    for c in 0..9 {
        out.clear();
        r.step(c, &mut out);
    }
    assert!(r.hooks().pseudo_unit().live(p(0)).is_none());
    println!("  both downstream credits spent -> circuit terminated (congestion)");
    r.receive_credit(east, Credit::new(VcIndex::new(0)));
    out.clear();
    r.step(9, &mut out);
    assert!(r.hooks().pseudo_unit().live(p(0)).is_some());
    println!(
        "  a credit returns -> speculation restores the circuit \
         ({} restore(s) counted)",
        r.stats().pc_speculative_restores
    );
    println!("\nmatches the paper's §IV.A: restoration on availability + credit");
}
