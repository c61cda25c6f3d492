//! Fig. 4 — Pseudo-circuit creation, reuse, and termination.
//!
//! The paper's Fig. 4 is a three-panel mechanism diagram. This harness
//! replays the exact scenario on a live router and prints the state
//! transitions: (a) a flit traversal creates a circuit, (b) a matching flit
//! reuses it without switch arbitration, (c) a flit from another input port
//! claiming the same output terminates it.

use noc_base::{
    Flit, FlitKind, NodeId, PacketClass, PacketId, PortIndex, RouteInfo, RouteMode, RouterId,
    RoutingPolicy, VaPolicy, VcIndex,
};
use noc_bench::banner;
use noc_sim::{NetworkConfig, RouterModel, RouterOutputs};
use noc_topology::{Mesh, SharedTopology};
use pseudo_circuit::{PcHooks, PcRouter, Scheme};
use std::sync::Arc;

const EAST: PortIndex = PortIndex::new(3);

fn flit(packet: u64, vc: usize) -> Flit {
    Flit {
        packet: PacketId::new(packet),
        kind: FlitKind::Single,
        seq: 0,
        src: NodeId::new(0),
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

/// Allocates `f` in the router's pool and delivers it on `port`.
fn deliver(r: &mut PcRouter, port: PortIndex, f: Flit) {
    let fr = r.pool().alloc_serial(f);
    r.receive_flit(port, fr);
}

fn describe(router: &PcRouter, what: &str) {
    print!("  {what:<52}");
    match router.hooks().pseudo_unit().live(PortIndex::new(0)) {
        Some(pc) => println!(
            "circuit: in p0 (vc {}) -> out {}",
            pc.in_vc.index(),
            pc.out_port
        ),
        None => match router.hooks().pseudo_unit().live(PortIndex::new(1)) {
            Some(pc) => println!(
                "circuit: in p1 (vc {}) -> out {}",
                pc.in_vc.index(),
                pc.out_port
            ),
            None => println!("no circuit"),
        },
    }
}

fn main() {
    banner(
        "Fig. 4",
        "pseudo-circuit creation (a), reuse (b), termination by conflict (c)",
    );
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let config = NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut r = PcHooks::router(RouterId::new(0), topo, config, Scheme::pseudo(), pool);
    let mut out = RouterOutputs::default();
    let mut step = |r: &mut PcRouter, cycle| {
        out.clear();
        r.step(cycle, &mut out);
        out.flits.len()
    };

    println!("\n(a) creation — packet 1 from input p0 takes the full pipeline:");
    describe(&r, "before any traffic:");
    deliver(&mut r, PortIndex::new(0), flit(1, 2));
    for c in 0..3 {
        let sent = step(&mut r, c);
        describe(
            &r,
            &format!("cycle {c} ({} flit(s) left the router):", sent),
        );
    }
    assert_eq!(r.stats().sa_grants, 1);

    println!("\n(b) reuse — packet 2, same VC and route, bypasses SA (2-cycle hop):");
    deliver(&mut r, PortIndex::new(0), flit(2, 2));
    for c in 3..5 {
        let sent = step(&mut r, c);
        describe(
            &r,
            &format!("cycle {c} ({} flit(s) left the router):", sent),
        );
    }
    assert_eq!(r.stats().pc_reuses, 1, "packet 2 reused the circuit");
    assert_eq!(r.stats().sa_grants, 1, "and never touched the arbiter");

    println!("\n(c) termination — packet 3 from input p1 claims the same output:");
    deliver(&mut r, PortIndex::new(1), flit(3, 2));
    for c in 5..8 {
        let sent = step(&mut r, c);
        describe(
            &r,
            &format!("cycle {c} ({} flit(s) left the router):", sent),
        );
    }
    assert_eq!(r.stats().pc_terminations_conflict, 1);
    println!(
        "\nresult: p0's circuit was terminated by p1's grant — one circuit per\n\
         output port, SA always wins (starvation freedom, paper §III.C)"
    );
}
