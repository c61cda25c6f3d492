//! Verifies the engine's zero-allocation steady state: once queues, buffers
//! and maps have grown to their working capacity, stepping the simulation
//! performs no heap allocations at all — the property the flattened wiring
//! tables, typed double-buffered event queues, and preallocated router
//! scratch buffers exist to provide.
//!
//! A counting `#[global_allocator]` (each file under `tests/` is its own
//! binary, so this does not leak into other tests) counts `alloc`/`realloc`
//! calls, and the bytes they ask for, while enabled. The run is fully
//! deterministic (fixed seeds), so the assertion is stable: if a code change
//! reintroduces a per-cycle allocation, this test fails every time.
//!
//! The same counter holds the construction budget: allocations per router
//! of a whole `Simulation::new`, and the bytes of one router and one
//! interface — the working set a step walks, which at a thousand routers is
//! what a cycle costs (EXPERIMENTS.md, "Cost of a step against network
//! size").

use noc_base::{FlitPool, NodeId, RouterId, RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, NetworkInterface, Simulation};
use noc_topology::{Mesh, Ring, SharedTopology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::{PcHooks, PcRouterFactory, Scheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

// Thread-local (const-initialized, so reading them never allocates): each
// test thread counts only its own allocations, keeping the assertion exact
// even though libtest runs the tests in parallel.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    // try_with: the TLS slot may already be gone during thread teardown.
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
            let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
            if PANIC_ON_ALLOC.load(std::sync::atomic::Ordering::Relaxed) {
                c.set(false); // avoid recursing through the panic machinery
                panic!("alloc in counted region");
            }
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static PANIC_ON_ALLOC: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Counts heap allocations made by the current thread during `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    if std::env::var_os("NOC_ALLOC_PANIC").is_some() {
        PANIC_ON_ALLOC.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    count_bytes(f).0
}

/// Counts the allocations the current thread makes during `f` and the bytes
/// they request (a `realloc` counts what it grows by).
fn count_bytes(f: impl FnOnce()) -> (u64, u64) {
    ALLOC_CALLS.with(|n| n.set(0));
    ALLOC_BYTES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOC_CALLS.with(|n| n.get()), ALLOC_BYTES.with(|n| n.get()))
}

fn paper_cmesh_sim() -> Simulation {
    let topo = Arc::new(Mesh::new(4, 4, 4));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.10, 7);
    Simulation::new(
        topo,
        NetworkConfig::paper(),
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    )
}

#[test]
fn construction_stays_within_its_allocation_budget() {
    // Not a steady-state property but the other half of the same layout:
    // the kernel keeps one record array per index space, every input VC's
    // state in one run of one bank, and its port/VC sets in words of the
    // struct itself, so building a router is a handful of allocations, not
    // one per field per port. The budget counts everything
    // `Simulation::new` builds per router — kernel, scheme state,
    // interface, wiring, lanes — so density cannot erode silently (the
    // one-vector-per-field layout needed 60, one record array per index
    // space with parallel buffer arrays 26).
    let topo: SharedTopology = Arc::new(Mesh::new(8, 8, 1));
    let traffic = Box::new(SyntheticTraffic::new(
        SyntheticPattern::UniformRandom,
        8,
        8,
        5,
        0.10,
        7,
    ));
    let routers = topo.num_routers() as u64;
    let whole = topo.clone();
    let allocs = count_allocs(|| {
        drop(Simulation::new(
            whole,
            NetworkConfig::paper(),
            traffic,
            &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
            9,
        ));
    });
    assert!(
        allocs <= 14 * routers,
        "Simulation::new made {allocs} allocations for {routers} routers ({} per router)",
        allocs / routers
    );

    // The byte rows: what one inner router (five ports, every one wired)
    // and one interface keep, heap and inline together — the boxed value is
    // itself an allocation, so the counter sees both. These are the bytes a
    // cycle walks per router; at 1024 routers they decide whether a step's
    // state is still in cache when its turn comes round again. Of the
    // router's 2 598, 1 280 are the twenty input VCs at one 64-byte line
    // each (4 refs, 4 full-width ready cycles, cursor, claim) — the floor
    // while a ready cycle is an exact `u64`.
    let pool = Arc::new(FlitPool::new(64, 1));
    let (_, router_bytes) = count_bytes(|| {
        let router = PcHooks::router(
            RouterId::new(27),
            topo.clone(),
            NetworkConfig::paper(),
            Scheme::pseudo_ps_bb(),
            pool.clone(),
        );
        drop(std::hint::black_box(Box::new(router)));
    });
    assert!(
        router_bytes <= 2_598,
        "an inner mesh8x8 router is {router_bytes} bytes (3 422 before the per-VC runs)"
    );
    // An interface's source queue takes its share of a network-wide
    // reservation: 64 entries of 40 bytes on this 64-node mesh, 8 on a
    // 1024-node one, where 1024 idle queues were the single largest item of
    // the simulation's memory.
    let large: SharedTopology = Arc::new(Mesh::new(32, 32, 1));
    for (topo, budget) in [(&topo, 3_100), (&large, 1_000)] {
        let (_, ni_bytes) = count_bytes(|| {
            let ni = NetworkInterface::new(
                NodeId::new(27),
                topo.clone(),
                NetworkConfig::paper(),
                9,
                pool.clone(),
            );
            drop(std::hint::black_box(Box::new(ni)));
        });
        assert!(
            ni_bytes <= budget,
            "an interface of {} is {ni_bytes} bytes (3 240 before), budget {budget}",
            topo.name()
        );
    }
}

#[test]
fn steady_state_step_does_not_allocate() {
    let mut sim = paper_cmesh_sim();
    // Warm up until every queue, scratch buffer, reassembly map and
    // histogram has reached its steady-state capacity.
    for _ in 0..20_000 {
        sim.step();
    }
    let cycles = 2_000;
    let allocs = count_allocs(|| {
        for _ in 0..cycles {
            sim.step();
        }
    });
    assert_eq!(
        allocs, 0,
        "engine allocated {allocs} times over {cycles} steady-state cycles"
    );
    // The network was genuinely busy while we counted, not quiescent.
    let traversals: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().flit_traversals)
        .sum();
    assert!(traversals > 100_000, "workload too light to be meaningful");
}

#[test]
fn multi_threaded_steady_state_does_not_allocate_on_any_thread() {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    // Parallelism lives across simulations: a campaign steps one simulation
    // per thread of its batch. Two warm simulations stepped as the two jobs
    // of one batch must stay allocation-free on both threads, the caller's
    // and the spawned one; each job counts its own thread's allocations
    // while it steps (the batch's thread spawn, once per campaign, is
    // outside the count). Each job waits until both have started, so the
    // spawned thread really runs one however the host schedules threads.
    let sims: Vec<Mutex<Simulation>> = (0..2)
        .map(|_| {
            let mut sim = paper_cmesh_sim();
            for _ in 0..20_000 {
                sim.step();
            }
            Mutex::new(sim)
        })
        .collect();
    let started = AtomicUsize::new(0);
    let on_spawned = AtomicUsize::new(0);
    let allocs: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
    let cycles = 2_000;
    noc_base::pool::WorkerPool.run_limited(2, 2, &|i| {
        started.fetch_add(1, Ordering::SeqCst);
        let mut polls = 0u64;
        while started.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
            polls += 1;
            assert!(polls < 50_000_000, "the second job never started");
        }
        if noc_base::pool::is_worker_thread() {
            on_spawned.fetch_add(1, Ordering::SeqCst);
        }
        let mut sim = sims[i].lock().expect("each job locks its own simulation");
        let n = count_allocs(|| {
            for _ in 0..cycles {
                sim.step();
            }
        });
        allocs[i].store(n, Ordering::SeqCst);
    });
    assert_eq!(
        on_spawned.load(Ordering::SeqCst),
        1,
        "one job ran on the spawned thread"
    );
    for (i, n) in allocs.iter().enumerate() {
        let n = n.load(Ordering::SeqCst);
        assert_eq!(n, 0, "job {i} allocated {n} times over {cycles} cycles");
    }
}

#[test]
fn ni_reassembly_and_pool_recycling_do_not_allocate_under_churn() {
    // A heavy multi-flit workload keeps every layer the flit pool feeds in
    // constant churn: NI packet queues at their reserved bound, the flat
    // reassembly table cycling entries, and pool slots recycling through
    // the free list every cycle. None of it may allocate once warm. The
    // load sits just under XY-mesh
    // saturation: an oversaturated node's source queue would genuinely grow
    // forever, which is unbounded backlog, not an engine allocation bug.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 4, 0.25, 11);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "churn workload allocated {allocs} times");
    let traversals: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().flit_traversals)
        .sum();
    assert!(traversals > 100_000, "workload too light to be meaningful");
}

#[test]
fn steady_state_step_does_not_allocate_with_baseline_router() {
    // The baseline (non-pseudo-circuit) scheme exercises the full VA/SA
    // pipeline every cycle; it must be allocation-free too.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.15, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::baseline()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "baseline engine allocated {allocs} times");
}

#[test]
fn steady_state_step_does_not_allocate_with_evc_router() {
    // The EVC router adds the express-latch path (try_latch) on top of the
    // two-stage pipeline; its steady state must be allocation-free too.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.15, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::evc()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "EVC engine allocated {allocs} times");
    // Express latching actually fired: the workload really exercised the
    // EVC-specific path while we counted, not just the shared pipeline.
    let bypasses: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().express_bypasses)
        .sum();
    assert!(
        bypasses > 0,
        "no express bypasses — EVC path never exercised"
    );
}

#[test]
fn steady_state_step_does_not_allocate_on_a_ring() {
    // The ring's two-port routers, dateline VC classes and CW/CCW route
    // modes must flow through the same preallocated kernel paths as the
    // mesh; nothing about the topology generalization may allocate per
    // cycle.
    let topo = Arc::new(Ring::new(8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 1, 5, 0.10, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "ring engine allocated {allocs} times");
    let traversals: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().flit_traversals)
        .sum();
    assert!(traversals > 10_000, "workload too light to be meaningful");
}

#[test]
fn steady_state_step_does_not_allocate_with_hybrid_router() {
    // The hybrid router's profile table and hot bitset are sized at
    // construction; counting, the cycle-1000 freeze, and the held-circuit
    // path afterwards must all be allocation-free. The 20k warmup runs
    // well past the default freeze point, so the counted window is the
    // hybrid (post-freeze) phase. The load sits below hybrid saturation:
    // held circuits cost some cold-flow throughput, and an oversaturated
    // node's source queue would keep doubling forever.
    let topo = Arc::new(Mesh::new(8, 8, 1));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 5, 0.10, 5);
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let mut sim = Simulation::new(
        topo,
        config,
        Box::new(traffic),
        &PcRouterFactory::new(Scheme::hybrid()),
        9,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    let reuses_before: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().pc_reuses)
        .sum();
    let allocs = count_allocs(|| {
        for _ in 0..2_000 {
            sim.step();
        }
    });
    assert_eq!(allocs, 0, "hybrid engine allocated {allocs} times");
    // Hot flows were actually riding held circuits during the counted
    // window, so the hybrid-specific path — not just the shared wormhole
    // pipeline — is what stayed allocation-free.
    let reuses_after: u64 = (0..sim.topology().num_routers())
        .map(|r| sim.router(RouterId::new(r)).stats().pc_reuses)
        .sum();
    assert!(
        reuses_after > reuses_before,
        "no circuit reuse during the counted window — hybrid path never exercised"
    );
}
