//! Cost of a router step against network size: the sizing experiment behind
//! the cache-resident router layout (EXPERIMENTS.md, "Cost of a step against
//! network size"), in a form the next change to the kernel can re-run.
//!
//! For square meshes from 144 to 2304 routers it runs the full scheme
//! (`pseudo+ps+bb`, XY, static VA, one thread) under uniform-random traffic
//! whose load is scaled so that every size does the same work per router —
//! about 1.1 flit traversals per router per cycle, what the benchmark's
//! `sharded_mesh32` workload does — and prints, best of three runs:
//!
//! - `B/router`: heap + inline bytes of one inner router, counted by this
//!   file's own allocator around one `RouterFactory::build`;
//! - `µs/build`: wall time of `build_simulation` (topology, wiring, routers,
//!   interfaces, traffic) per router;
//! - `ns/step`: wall time per router per stepped cycle;
//! - `ns/hop`: wall time per flit traversal.
//!
//! The instructions per step do not depend on the size, so what `ns/step`
//! gains from the smallest mesh to the largest is the price of the bytes a
//! step touches once they no longer fit the host's caches.
//!
//! Run with: `cargo run --release --example step_cost [SIDE...]`
//! (default sides: 12 16 20 24 32 48).

use noc_base::{FlitPool, RouterId};
use noc_campaign::{build_simulation, build_topology, PointSpec};
use noc_sim::{MetricsConfig, RouterBuildContext, RouterFactory};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bytes requested from the allocator so far (never decremented: the
/// measured region only builds).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the counter is a side
// effect that allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Flit traversals per router per cycle every size is loaded to.
const TRAVERSALS_PER_ROUTER_CYCLE: f64 = 1.1;
const WARMUP: u64 = 500;
const MEASURE: u64 = 1_000;
const PACKET: u16 = 5;

fn point(side: usize) -> PointSpec {
    // A uniform-random packet on a k×k mesh under XY crosses 2(k²-1)/3k
    // links on average and one more router than links.
    let k = side as f64;
    let routers_per_flit = 2.0 * (k * k - 1.0) / (3.0 * k) + 1.0;
    PointSpec {
        topology: format!("mesh{side}x{side}"),
        packet: PACKET,
        load: TRAVERSALS_PER_ROUTER_CYCLE / routers_per_flit,
        warmup: WARMUP,
        measure: MEASURE,
        drain: 100_000,
        ..PointSpec::default()
    }
}

/// Heap + inline bytes of one inner router of the mesh.
fn router_bytes(side: usize) -> usize {
    let spec = point(side);
    let topo = build_topology(&spec.topology).expect("a legal mesh");
    let config = spec.network_config();
    let pool = Arc::new(FlitPool::new(1024, 1));
    let metrics = MetricsConfig::off();
    let ctx = RouterBuildContext {
        id: RouterId::new(side * (side / 2) + side / 2),
        topology: &topo,
        config: &config,
        seed: 1,
        metrics: &metrics,
        pool: &pool,
    };
    let before = REQUESTED.load(Ordering::Relaxed);
    let router = PcRouterFactory::new(Scheme::pseudo_ps_bb()).build(ctx);
    let bytes = REQUESTED.load(Ordering::Relaxed) - before;
    drop(router);
    bytes
}

/// One timed run: `(µs to build per router, ns per router step, ns per flit
/// traversal, traversals per router per cycle)`.
fn run_once(side: usize) -> (f64, f64, f64, f64) {
    let spec = point(side);
    let routers = (side * side) as f64;
    let start = Instant::now();
    let mut sim = build_simulation(&spec, MetricsConfig::off()).expect("a legal point");
    let build_us = start.elapsed().as_nanos() as f64 / 1e3;
    let start = Instant::now();
    let report = sim.run(spec.run_spec());
    let ns = start.elapsed().as_nanos() as f64;
    assert!(report.drained, "mesh{side}x{side} did not drain");
    let router_steps = routers * sim.cycle() as f64;
    let hops = report.router_stats.flit_traversals as f64;
    (
        build_us / routers,
        ns / router_steps,
        ns / hops,
        hops / router_steps,
    )
}

fn main() {
    let sides: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a mesh side length"))
        .collect();
    let sides = if sides.is_empty() {
        vec![12, 16, 20, 24, 32, 48]
    } else {
        sides
    };
    println!("mesh      routers  B/router  µs/build  ns/step  ns/hop  hops/step");
    for side in sides {
        let runs: Vec<_> = (0..3).map(|_| run_once(side)).collect();
        let build = runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        let best = runs
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three runs");
        println!(
            "{:<9} {:>7}  {:>8}  {:>8.3}  {:>7.1}  {:>6.1}  {:>9.2}",
            format!("{side}x{side}"),
            side * side,
            router_bytes(side),
            build,
            best.1,
            best.2,
            best.3,
        );
    }
}
