//! Isolated per-layer drivers: each times one layer's public functions from
//! outside, on inputs shaped like the workload's.
//!
//! `scale` divides every operation count (1 for a real run, 100 for
//! `--smoke`). Results pass through `black_box` so the measured work cannot
//! be deleted.

use noc_base::arena::placeholder_flit;
use noc_base::rng::Pcg32;
use noc_base::{
    Credit, FlitPool, FlitRef, NodeId, PacketClass, PacketDescriptor, PacketId, PortIndex,
    RouteInfo, RouteMode, RouterId, RoutingPolicy, VaPolicy, VcIndex,
};
use noc_sim::blocks::FifoBank;
use noc_sim::{
    MetricsConfig, NetworkConfig, RouterBuildContext, RouterFactory, RouterOutputs, RouterStats,
};
use noc_topology::{DistanceMatrix, FlatWiring, Mesh, SharedTopology, Topology};
use noc_traffic::{read_trace, write_trace, DeliveredPacket, TraceRecord, TrafficModel};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn ns_per(ops: u64, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Drives a traffic model standalone for `cycles` cycles with a counting
/// sink. With `reply_after`, every emitted request is reported back through
/// `deliver` that many cycles later — the fixed-latency stub network a
/// closed-loop model needs to keep issuing. Returns ns per cycle and the
/// request count.
pub fn traffic_generate(
    model: &mut dyn TrafficModel,
    cycles: u64,
    reply_after: Option<u64>,
) -> (f64, u64) {
    let mut requests = 0u64;
    let mut in_flight: VecDeque<DeliveredPacket> = VecDeque::new();
    let start = Instant::now();
    for cycle in 0..cycles {
        while in_flight.front().is_some_and(|p| p.delivered_at <= cycle) {
            let packet = in_flight.pop_front().expect("front exists");
            model.deliver(cycle, &packet);
        }
        model.generate(cycle, &mut |r| {
            requests += 1;
            if let Some(latency) = reply_after {
                in_flight.push_back(DeliveredPacket {
                    id: PacketId::new(requests),
                    src: r.src,
                    dst: r.dst,
                    len: r.len,
                    class: r.class,
                    injected_at: cycle,
                    delivered_at: cycle + latency,
                });
            }
        });
    }
    (ns_per(cycles, start), black_box(requests))
}

/// Times `next_injection_cycle` per call: the model is asked, from each
/// multiple of `stride`, for its next injection within the following
/// `stride` cycles, then generated up to the answer so the query always
/// faces fresh state.
pub fn traffic_next_injection(model: &mut dyn TrafficModel, calls: u64, stride: u64) -> f64 {
    let mut acc = 0u64;
    let mut spent = 0u128;
    for i in 0..calls {
        let from = i * stride;
        let start = Instant::now();
        let next = model.next_injection_cycle(from, from + stride);
        spent += start.elapsed().as_nanos();
        if let Some(t) = next {
            acc = acc.wrapping_add(t);
            model.generate(t, &mut |_| {});
        }
    }
    black_box(acc);
    spent as f64 / calls.max(1) as f64
}

/// `write_trace` and `read_trace` throughput over `records`, in MB/s of
/// trace text.
pub fn trace_codec(records: &[TraceRecord]) -> (f64, f64) {
    let mut text = Vec::new();
    let start = Instant::now();
    write_trace(&mut text, records).expect("writing to memory cannot fail");
    let write_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parsed = read_trace(&text[..]).expect("the trace was just written");
    let read_s = start.elapsed().as_secs_f64();
    black_box(parsed.len());
    let mb = text.len() as f64 / 1e6;
    (mb / write_s.max(1e-9), mb / read_s.max(1e-9))
}

/// `select_mode` once, then `route` hop by hop, over `pairs` random
/// (src, dst) pairs. Returns ns per `route` call.
pub fn topology_route(topo: &dyn Topology, policy: RoutingPolicy, seed: u64, pairs: u64) -> f64 {
    let mut rng = Pcg32::seed_with_stream(seed, 0x70b0);
    let nodes = topo.num_nodes();
    let conc = topo.concentration();
    let mut calls = 0u64;
    let mut acc = 0usize;
    let start = Instant::now();
    for _ in 0..pairs {
        let src = NodeId::new(rng.next_index(nodes));
        let dst = NodeId::new(rng.next_index(nodes));
        let mode = topo.select_mode(src, dst, policy.pick_mode(&mut rng));
        let mut at = topo.router_of(src);
        loop {
            let route = topo.route(at, dst, mode);
            calls += 1;
            acc += route.port.index();
            if route.port.index() < conc {
                break;
            }
            at = topo
                .link(at, route.port, route.hops)
                .expect("a route leads over a connected channel")
                .router;
        }
    }
    black_box(acc);
    ns_per(calls, start)
}

/// `FlatWiring::new` + `DistanceMatrix::new`, in seconds.
pub fn wiring_build(topo: &dyn Topology) -> f64 {
    let start = Instant::now();
    let wiring = FlatWiring::new(topo);
    let dist = DistanceMatrix::new(topo);
    let secs = start.elapsed().as_secs_f64();
    black_box((wiring.concentration(), dist.num_nodes()));
    secs
}

/// Serial `FlitPool::alloc` + `free` pairs, replenishing the shard stack in
/// batches as the engine does once per cycle. Returns ns per pair.
pub fn pool_alloc_free(pairs: u64) -> f64 {
    const BATCH: usize = 64;
    let pool = FlitPool::new(4 * BATCH, 1);
    let flit = placeholder_flit();
    let mut held = [FlitRef::INVALID; BATCH];
    let rounds = pairs.div_ceil(BATCH as u64);
    let start = Instant::now();
    for _ in 0..rounds {
        pool.replenish(0, BATCH);
        for slot in &mut held {
            *slot = pool.alloc(0, flit);
        }
        for &r in &held {
            pool.free(black_box(r));
        }
    }
    ns_per(rounds * BATCH as u64, start)
}

/// The worker pool's two-thread round trip: `run_limited(2, 2, empty job)`
/// per batch, and the mean straggler wait `run_limited_timed` reports.
/// Returns `(batch_ns, wait_ns)`.
pub fn workerpool(batches: u64) -> (f64, f64) {
    let pool = noc_base::pool::global();
    let job = |i: usize| {
        black_box(i);
    };
    for _ in 0..batches / 10 {
        pool.run_limited(2, 2, &job);
    }
    let start = Instant::now();
    for _ in 0..batches {
        pool.run_limited(2, 2, &job);
    }
    let batch_ns = ns_per(batches, start);
    let waited: u64 = (0..batches)
        .map(|_| pool.run_limited_timed(2, 2, &job))
        .sum();
    (batch_ns, waited as f64 / batches.max(1) as f64)
}

/// `FifoBank::push` + `pop` pairs over one router's input buffers (20 slots
/// × depth 4, each kept half full — the `fifo_micro` shape). Returns ns per
/// pair.
pub fn fifo_push_pop(pairs: u64) -> f64 {
    const SLOTS: usize = 20;
    const DEPTH: usize = 4;
    let pool = FlitPool::new(SLOTS * DEPTH + 1, 1);
    let refs: Vec<FlitRef> = (0..SLOTS)
        .map(|_| pool.alloc_serial(placeholder_flit()))
        .collect();
    let mut bank = FifoBank::new(SLOTS, DEPTH);
    for slot in 0..SLOTS {
        for k in 0..DEPTH / 2 {
            bank.push(slot, refs[(slot + k) % SLOTS], 0)
                .expect("pre-fill fits");
        }
    }
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..pairs as usize {
        let slot = i % SLOTS;
        bank.push(slot, refs[i % SLOTS], i as u64)
            .expect("a half-full ring has room");
        if let Some((popped, ready)) = bank.pop(slot) {
            acc = acc.wrapping_add(popped.index() as u64).wrapping_add(ready);
        }
    }
    black_box(acc);
    ns_per(pairs, start)
}

/// One packet route through the router under test.
#[derive(Copy, Clone)]
struct Transit {
    src: NodeId,
    dst: NodeId,
    mode: RouteMode,
    class: u8,
    route: RouteInfo,
}

/// An upstream neighbour (or local node) feeding one input port: one packet
/// at a time, one flit per cycle, gated by per-VC credits.
struct Feeder {
    transits: Vec<Transit>,
    credits: Vec<u32>,
    sending: Option<(PacketDescriptor, Transit, VcIndex, u16)>,
}

/// Builds the central router of an 8×8 mesh (5 ports) through `factory` and
/// feeds it a seeded `receive_flit` / `receive_credit` stream at
/// `port_load` flits per input port per cycle, with upstream and downstream
/// credit loops closed one cycle later. Only `step` is timed (two clock
/// reads per call are included). Returns ns per `step` and the router's
/// statistics.
pub fn router_step(
    factory: &dyn RouterFactory,
    config: NetworkConfig,
    port_load: f64,
    packet_len: u16,
    seed: u64,
    cycles: u64,
) -> (f64, RouterStats) {
    let topo: SharedTopology = Arc::new(Mesh::new(8, 8, 1));
    let id = RouterId::new(27);
    let pool = Arc::new(FlitPool::new(1024, 1));
    let metrics = MetricsConfig::off();
    let mut router = factory.build(RouterBuildContext {
        id,
        topology: &topo,
        config: &config,
        seed,
        metrics: &metrics,
        pool: &pool,
    });
    let partition = config.partition_for(topo.as_ref());
    let vcs = config.vcs_per_port as usize;
    let mut feeders: Vec<Feeder> = (0..topo.in_ports(id))
        .map(|_| Feeder {
            transits: Vec::new(),
            credits: vec![config.buffer_depth; vcs],
            sending: None,
        })
        .collect();
    // Every (src, dst, mode) whose path crosses the router, keyed by the
    // input port it arrives on.
    let modes: &[RouteMode] = match config.routing {
        RoutingPolicy::Xy => &[RouteMode::XY],
        RoutingPolicy::Yx => &[RouteMode::YX],
        RoutingPolicy::O1Turn => &[RouteMode::XY, RouteMode::YX],
    };
    for s in 0..topo.num_nodes() {
        for d in (0..topo.num_nodes()).filter(|&d| d != s) {
            let (src, dst) = (NodeId::new(s), NodeId::new(d));
            for &mode in modes {
                let mut at = topo.router_of(src);
                let mut in_port = topo.local_port(src);
                loop {
                    let route = topo.route(at, dst, mode);
                    if at == id {
                        feeders[in_port.index()].transits.push(Transit {
                            src,
                            dst,
                            mode,
                            class: topo.mode_class(config.routing, src, dst, mode),
                            route,
                        });
                        break;
                    }
                    if route.port.index() < topo.concentration() {
                        break;
                    }
                    let end = topo
                        .link(at, route.port, route.hops)
                        .expect("a route leads over a connected channel");
                    at = end.router;
                    in_port = end.port;
                }
            }
        }
    }

    let mut rng = Pcg32::seed_with_stream(seed, 0x5_7e9);
    let start_p = port_load / f64::from(packet_len);
    let mut out = RouterOutputs::default();
    let mut due_credits: Vec<(PortIndex, Credit)> = Vec::new();
    let mut next_packet = 0u64;
    let mut step_ns = 0u128;
    for cycle in 0..cycles {
        for (port, credit) in due_credits.drain(..) {
            router.receive_credit(port, credit);
        }
        for (p, feeder) in feeders.iter_mut().enumerate() {
            if feeder.sending.is_none() && rng.next_bool(start_p) {
                let transit = feeder.transits[rng.next_index(feeder.transits.len())];
                let vc = match config.va_policy {
                    VaPolicy::Static => Some(partition.static_vc(transit.class, transit.dst)),
                    VaPolicy::Dynamic => partition
                        .class_range(transit.class)
                        .map(|v| VcIndex::new(v as usize))
                        .max_by_key(|v| feeder.credits[v.index()]),
                };
                if let Some(vc) = vc.filter(|v| feeder.credits[v.index()] > 0) {
                    next_packet += 1;
                    let desc = PacketDescriptor {
                        id: PacketId::new(next_packet),
                        src: transit.src,
                        dst: transit.dst,
                        len: packet_len,
                        class: PacketClass::Data,
                        created_at: cycle,
                    };
                    feeder.sending = Some((desc, transit, vc, 0));
                }
            }
            let Some((desc, transit, vc, seq)) = feeder.sending.as_mut() else {
                continue;
            };
            if feeder.credits[vc.index()] == 0 {
                continue;
            }
            let mut flit = desc.flit(*seq);
            flit.vc = *vc;
            flit.mode = transit.mode;
            flit.class = transit.class;
            flit.route = transit.route;
            feeder.credits[vc.index()] -= 1;
            *seq += 1;
            let done = *seq == desc.len;
            router.receive_flit(PortIndex::new(p), pool.alloc_serial(flit));
            if done {
                feeder.sending = None;
            }
        }
        out.clear();
        let start = Instant::now();
        router.step(cycle, &mut out);
        step_ns += start.elapsed().as_nanos();
        for sent in &out.flits {
            let vc = pool.get(sent.flit).vc;
            due_credits.push((
                sent.out_port,
                Credit {
                    vc,
                    sub: sent.hops - 1,
                },
            ));
            pool.free(sent.flit);
        }
        for &(in_port, vc) in &out.credits {
            feeders[in_port.index()].credits[vc.index()] += 1;
        }
    }
    (step_ns as f64 / cycles.max(1) as f64, router.stats())
}

/// Wall of spawning `target/release/noc run` on a 100-cycle `mesh8x8` minus
/// `in_process_s`, the same run's time inside this process. `None` when the
/// binary is absent (it is not part of the benchmark's own build).
pub fn cli_overhead(in_process_s: f64) -> Option<f64> {
    let binary = std::path::Path::new("target/release/noc");
    if !binary.is_file() {
        return None;
    }
    let start = Instant::now();
    let output = std::process::Command::new(binary)
        .args([
            "run",
            "--topology",
            "mesh8x8",
            "--routing",
            "xy",
            "--va",
            "static",
            "--warmup",
            "0",
            "--measure",
            "100",
            "--drain",
            "1000",
        ])
        .output()
        .ok()?;
    let wall = start.elapsed().as_secs_f64();
    output
        .status
        .success()
        .then_some((wall - in_process_s).max(0.0))
}
