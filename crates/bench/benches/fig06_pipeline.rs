//! Fig. 6 — Pipeline stages per scheme.
//!
//! Measures per-hop router delay directly on a single router: the cycle an
//! isolated flit arrives versus the cycle it leaves, for a circuit miss
//! (baseline pipeline), a pseudo-circuit hit, and a buffer-bypass hit.
//! Expected: 3 / 2 / 1 cycles — the paper's t_router. (Link traversal in
//! this engine overlaps the downstream buffer write: a flit emitted at ST is
//! delivered the next cycle, so per-hop latency equals t_router.)

use noc_base::{
    Flit, FlitKind, NodeId, PacketClass, PacketId, PortIndex, RouteInfo, RouteMode, RouterId,
    RoutingPolicy, VaPolicy, VcIndex,
};
use noc_bench::{banner, Table};
use noc_sim::{NetworkConfig, RouterModel, RouterOutputs};
use noc_topology::{Mesh, SharedTopology};
use pseudo_circuit::{PcHooks, Scheme};
use std::sync::Arc;

fn probe_flit(packet: u64) -> Flit {
    Flit {
        packet: PacketId::new(packet),
        kind: FlitKind::Single,
        seq: 0,
        src: NodeId::new(0),
        dst: NodeId::new(2),
        vc: VcIndex::new(2),
        route: RouteInfo::new(PortIndex::new(3)),
        mode: RouteMode::XY,
        class: 0,
        injected_at: 0,
        packet_class: PacketClass::Data,
        express_hops: 0,
    }
}

/// Router delay of the `n`-th identical probe packet (1-based), with probes
/// spaced far enough apart to be isolated.
fn probe_delay(scheme: Scheme, n: usize) -> u64 {
    let topo: SharedTopology = Arc::new(Mesh::new(2, 1, 2));
    let config = NetworkConfig {
        vcs_per_port: 4,
        buffer_depth: 4,
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
    };
    let pool = Arc::new(noc_base::FlitPool::new(64, 1));
    let mut router = PcHooks::router(RouterId::new(0), topo, config, scheme, pool);
    let mut cycle = 0u64;
    let mut delay = 0;
    for i in 0..n {
        let arrival = cycle;
        let fr = router.pool().alloc_serial(probe_flit(i as u64));
        router.receive_flit(PortIndex::new(0), fr);
        loop {
            let mut out = RouterOutputs::default();
            router.step(cycle, &mut out);
            // Keep downstream credits topped up so isolation holds.
            for sent in &out.flits {
                let vc = router.pool().get(sent.flit).vc;
                router.receive_credit(sent.out_port, noc_base::Credit::new(vc));
            }
            let emitted = !out.flits.is_empty();
            cycle += 1;
            if emitted {
                delay = cycle - arrival;
                break;
            }
            assert!(cycle - arrival < 32, "probe stuck");
        }
        cycle += 4; // gap between probes
    }
    delay
}

fn main() {
    banner(
        "Fig. 6",
        "per-hop router pipeline depth by scheme (measured on a live router)",
    );
    let mut table = Table::new(["scheme", "first packet", "repeat packet", "paper (repeat)"]);
    for (scheme, paper) in [
        (Scheme::baseline(), "3 (BW, VA/SA, ST)"),
        (Scheme::pseudo(), "2 (BW, C+ST)"),
        (Scheme::pseudo_ps_bb(), "1 (C+ST)"),
    ] {
        let first = probe_delay(scheme, 1);
        let repeat = probe_delay(scheme, 4);
        table.row([
            scheme.to_string(),
            format!("{first} cycles"),
            format!("{repeat} cycles"),
            paper.to_string(),
        ]);
    }
    table.print();
    println!("\n(first packet always pays the full pipeline; repeats hit the circuit)");
}
