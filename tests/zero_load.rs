//! Zero-load latency in closed form (EXPERIMENTS.md, "Timing-model note").
//!
//! An isolated packet of `len` flits whose route crosses `H` links and so
//! `H + 1` routers arrives after exactly
//!
//! ```text
//! T = 1 + t_router · (H + 1) + (len − 1)
//! ```
//!
//! cycles: one to enter the network, `t_router` per router (link traversal
//! overlaps the downstream buffer write), and one per trailing flit. The
//! first packet on a quiet network pays the full pipeline, `t_router = 3`,
//! under every scheme. The same packet sent again once the first has drained
//! finds the circuit its predecessor left at every router: `t_router = 2`
//! under Pseudo and Pseudo+PS, 1 with buffer bypassing, and still 3 for the
//! baseline router.
//!
//! One term the closed form leaves out: in the baseline router a flit holds
//! its downstream buffer slot for five cycles, one more than the paper's
//! 4-flit VC buffer covers at one flit per cycle, so every fourth trailing
//! flit of a baseline packet waits one cycle for a credit —
//! `⌊(len − 1) / 4⌋` cycles in all. Flits that follow a pseudo-circuit
//! free their slot sooner and never wait.

use noc_base::{NodeId, PacketClass, RoutingPolicy, VaPolicy};
use noc_campaign::build_topology;
use noc_sim::{NetworkConfig, Simulation};
use noc_traffic::{DeliveredPacket, PacketRequest, TrafficModel};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::{Arc, Mutex};

/// One packet from `src` to `dst`, sent at each cycle of `at`; deliveries
/// are recorded as `(injected_at, delivered_at)`.
struct Repeat {
    src: NodeId,
    dst: NodeId,
    len: u16,
    at: [u64; 2],
    delivered: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl TrafficModel for Repeat {
    fn name(&self) -> &str {
        "repeat"
    }
    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        if self.at.contains(&cycle) {
            sink(PacketRequest {
                src: self.src,
                dst: self.dst,
                len: self.len,
                class: PacketClass::Data,
            });
        }
    }
    fn deliver(&mut self, _cycle: u64, packet: &DeliveredPacket) {
        let mut delivered = self.delivered.lock().expect("one test thread");
        delivered.push((packet.injected_at, packet.delivered_at));
    }
}

/// The closed form, plus the baseline router's credit waits.
fn zero_load(t_router: u64, hops: u64, len: u64, scheme: Scheme) -> u64 {
    let credit_waits = if scheme == Scheme::baseline() {
        (len - 1) / 4
    } else {
        0
    };
    1 + t_router * (hops + 1) + (len - 1) + credit_waits
}

/// The latencies of a packet and of its repeat sent 500 cycles later, from
/// the first node to the last of `topology`, and the repeat's header
/// circuit hits summed over the routers.
fn first_and_repeat(topology: &str, scheme: Scheme, len: u16) -> (u64, u64, u64, u64) {
    let topo = build_topology(topology).expect("a known topology");
    let (src, dst) = (NodeId::new(0), NodeId::new(topo.num_nodes() - 1));
    let hops = u64::from(topo.min_hops(src, dst));
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let traffic = Repeat {
        src,
        dst,
        len,
        at: [0, 500],
        delivered: delivered.clone(),
    };
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let factory = PcRouterFactory::new(scheme);
    let mut sim = Simulation::new(topo.clone(), config, Box::new(traffic), &factory, 1);
    let header_hits = |sim: &Simulation| -> u64 {
        (0..topo.num_routers())
            .map(|r| {
                sim.router(noc_base::RouterId::new(r))
                    .stats()
                    .pc_header_reuses
            })
            .sum()
    };
    let mut hits_before_repeat = 0;
    for cycle in 0..1_000 {
        if cycle == 500 {
            hits_before_repeat = header_hits(&sim);
        }
        sim.step();
    }
    let latencies: Vec<u64> = delivered
        .lock()
        .expect("one test thread")
        .iter()
        .map(|(sent, arrived)| arrived - sent)
        .collect();
    assert_eq!(
        latencies.len(),
        2,
        "{topology} {scheme}: both packets arrive"
    );
    let repeat_hits = header_hits(&sim) - hits_before_repeat;
    (hops, latencies[0], latencies[1], repeat_hits)
}

#[test]
fn isolated_packets_meet_the_closed_form_exactly() {
    let schemes = [
        (Scheme::baseline(), 3),
        (Scheme::pseudo(), 2),
        (Scheme::pseudo_ps(), 2),
        (Scheme::pseudo_bb(), 1),
        (Scheme::pseudo_ps_bb(), 1),
    ];
    for topology in ["mesh8x8", "cmesh4x4", "mecs4x4", "fbfly4x4", "ring8"] {
        for (scheme, t_repeat) in schemes {
            for len in [1, 2, 5, 9] {
                let (hops, first, repeat, hits) = first_and_repeat(topology, scheme, len);
                let at = format!("{topology} {scheme} len {len}");
                let len = u64::from(len);
                assert_eq!(first, zero_load(3, hops, len, scheme), "{at}: first");
                assert_eq!(
                    repeat,
                    zero_load(t_repeat, hops, len, scheme),
                    "{at}: repeat"
                );
                let expected_hits = if scheme == Scheme::baseline() {
                    0
                } else {
                    hops + 1
                };
                assert_eq!(hits, expected_hits, "{at}: header hits");
            }
        }
    }
}
