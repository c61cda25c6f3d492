//! Network assembly and the cycle-accurate simulation driver.
//!
//! The engine is cycle-driven with two-phase event delivery: everything a
//! router or network interface emits at cycle `c` is delivered at `c + 1`
//! (one-cycle link and credit-return latency), so evaluation order within a
//! cycle cannot leak information between components.
//!
//! The hot loop runs on precomputed state only. At construction every
//! per-event topology lookup is flattened into the [`FlatWiring`] index
//! tables, events travel through typed double-buffered queues (no enum
//! dispatch, capacity reused across cycles), and per-shard worklist masks
//! name the routers and interfaces that have anything to do, so a component
//! that is provably quiescent costs a clear bit. In steady state the loop
//! performs zero heap allocations.
//!
//! # Sharded parallel stepping
//!
//! Because every link carries one cycle of latency, a cycle's router
//! computation depends only on the *previous* cycle's inboxes — there are no
//! intra-cycle dependencies between routers. The engine exploits this by
//! partitioning routers into contiguous index shards ([`ShardLayout`]) and
//! stepping the shards in parallel on a persistent worker pool
//! ([`noc_base::pool`]). A cycle costs **one** synchronization point —
//! waiting for its pool batch to drain — because everything else is fused
//! into the shard scan itself:
//!
//! - **Fused merge over double-buffered lanes.** Cross-shard traffic travels
//!   through a flat `shards × shards` matrix of [`LanePair`]s: at cycle `c`
//!   shard `s` appends to row `s` of the *next* matrix and drains column `s`
//!   of the *now* matrix, in ascending source-shard order — which (shards
//!   being contiguous index ranges) reproduces the serial engine's ascending
//!   router-index emission order event for event. Rows and columns are
//!   touched by exactly one shard each and the two matrices are distinct
//!   buffers swapped by the driver, so the former submitter-side serial
//!   merge pass is gone entirely.
//! - **Quiescent-shard skip.** Each shard records which shards its emissions
//!   target (a word-packed [`WordMask`]) plus whether its own routers/NIs
//!   still hold work; the driver unions these into a pending mask and the
//!   next batch covers only pending shards. A shard with no inbound lanes
//!   and no retained work is provably a no-op and never wakes a worker —
//!   composing with full-network quiescence fast-forwarding.
//!
//! The result is byte-identical to the single-threaded engine for any shard
//! count and any thread count (see DESIGN.md §12 and §17 for the full
//! determinism argument).

use crate::metrics::{
    chrome_trace_json, CoordinationStats, MetricsConfig, MetricsLevel, ObservabilityReport,
};
use crate::ni::{NetworkInterface, NiOutputs};
use crate::router::{RouterBuildContext, RouterFactory, RouterModel, RouterOutputs};
use crate::stats::{energy_breakdown_of, SimReport, SimStats};
use crate::{NetworkConfig, RunSpec};
use noc_base::bitset::WordMask;
use noc_base::rng::SeedStream;
use noc_base::{Credit, FlitPool, FlitRef, NodeId, PacketId, PortIndex, RouterId};
use noc_energy::EnergyCounters;
use noc_topology::{FlatWiring, PortFeeder, SharedTopology, Topology};
use noc_traffic::TrafficModel;
use std::ops::Range;
use std::sync::Arc;

/// One cell of the cross-shard lane matrix: the router-bound flits and
/// upstream credits emitted by one source shard for one destination shard,
/// for delivery next cycle. Within a delivery phase the two kinds commute
/// (`receive_flit`/`receive_credit` only buffer and count; no component
/// steps until every event has landed), so draining lane by lane is
/// behaviourally identical to the interleaved order in which the events were
/// emitted.
#[derive(Default, Debug)]
struct LanePair {
    /// Link flits `(destination router, input port, pool reference)`.
    flits: Vec<(RouterId, PortIndex, FlitRef)>,
    /// Upstream credit returns `(upstream router, output port, credit)`.
    credits: Vec<(RouterId, PortIndex, Credit)>,
}

impl LanePair {
    fn is_empty(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty()
    }
}

/// One shard's intra-shard emissions for delivery next cycle, split by event
/// kind so each lane is a flat tuple vector drained without enum dispatch.
///
/// Only events that never cross shards live here — an interface's attached
/// router, and the router that ejects to or returns credits to a node, are
/// by construction in the node's own shard. Router-to-router traffic goes
/// through the cross-shard [`LanePair`] matrix instead.
#[derive(Default, Debug)]
struct ShardOutbox {
    /// Interface-emitted flits entering this shard's own routers.
    ni_flits: Vec<(RouterId, PortIndex, FlitRef)>,
    /// Interface-returned credits for this shard's own routers.
    ni_credits: Vec<(RouterId, PortIndex, Credit)>,
    /// Ejections to this shard's own interfaces.
    node_flits: Vec<(NodeId, FlitRef)>,
    /// Credit returns to this shard's own interfaces.
    node_credits: Vec<(NodeId, Credit)>,
    /// Which shards must run next cycle to consume this shard's emissions:
    /// bit `d` for every cross-shard lane written, bit `self` when any
    /// intra-shard lane is non-empty. Rewritten from scratch each time the
    /// shard steps; stale between steps (skipped shards emitted nothing, so
    /// their stale mask is never read).
    dest_mask: WordMask,
}

impl ShardOutbox {
    fn new(shards: usize) -> Self {
        Self {
            dest_mask: WordMask::new(shards),
            ..Self::default()
        }
    }

    /// Whether any event lane holds an undelivered event (the `dest_mask` is
    /// bookkeeping, not an event).
    fn is_empty(&self) -> bool {
        self.ni_flits.is_empty()
            && self.ni_credits.is_empty()
            && self.node_flits.is_empty()
            && self.node_credits.is_empty()
    }
}

/// Contiguous-index partition of routers (and their attached interfaces)
/// into execution shards.
#[derive(Debug)]
struct ShardLayout {
    /// Router-index range of each shard.
    ranges: Vec<Range<usize>>,
    /// Node indices whose attached router lies in each shard, ascending.
    ni_lists: Vec<Vec<usize>>,
    /// Shard of each router (the lane an emission to it travels in).
    router_shard: Vec<usize>,
    /// Shard of each node's attached router (for pending-mask marking on
    /// injection).
    node_shard: Vec<usize>,
}

impl ShardLayout {
    fn new(shards: usize, num_routers: usize, num_nodes: usize, wiring: &FlatWiring) -> Self {
        let shards = shards.clamp(1, num_routers.max(1));
        let chunk = num_routers.max(1).div_ceil(shards);
        let ranges: Vec<Range<usize>> = (0..shards)
            .map(|s| (s * chunk).min(num_routers)..((s + 1) * chunk).min(num_routers))
            .take_while(|r| !r.is_empty())
            .collect();
        let router_shard: Vec<usize> = (0..num_routers).map(|r| r / chunk).collect();
        let mut ni_lists: Vec<Vec<usize>> = (0..ranges.len()).map(|_| Vec::new()).collect();
        let mut node_shard = Vec::with_capacity(num_nodes);
        for n in 0..num_nodes {
            let (router, _) = wiring.attach_of(NodeId::new(n));
            let s = router_shard[router.index()];
            ni_lists[s].push(n);
            node_shard.push(s);
        }
        Self {
            ranges,
            ni_lists,
            router_shard,
            node_shard,
        }
    }

    #[inline]
    fn dest_shard(&self, router: usize) -> usize {
        self.router_shard[router]
    }

    fn shards(&self) -> usize {
        self.ranges.len()
    }
}

/// Per-shard mutable scratch: reusable emission buffers, the shard's
/// worklists, and its contribution to next cycle's pending mask.
struct ShardScratch {
    router_out: RouterOutputs,
    ni_out: NiOutputs,
    /// Routers of this shard (by router index) whose `step` must run: bit
    /// set when an event is delivered to the router, and kept after a step
    /// while the router does not certify [`RouterModel::is_idle`]. A router
    /// changes state only through `receive_*` and `step`, so a clear bit
    /// means the idleness it certified after its last step still holds.
    router_work: WordMask,
    /// Interfaces of this shard (by node index) whose `step` must run: bit
    /// set by the driver on `enqueue` and on flit receipt (which owes an
    /// ejection credit), and kept after a step while
    /// [`NetworkInterface::has_step_work`] holds.
    ni_work: WordMask,
    /// Set by the shard's step when either worklist is non-empty afterwards
    /// — work for next cycle that the pending mask cannot see through the
    /// event lanes.
    busy: bool,
    /// Non-empty inbound lanes this shard drained in its latest step
    /// (coordination metrics only; counted only when enabled).
    lanes_merged: u64,
}

/// Everything one shard job needs, erased to raw pointers where shards touch
/// disjoint elements of a shared vector.
///
/// Safety: shard `s` dereferences `routers[r]` only for `r` in
/// `layout.ranges[s]`, `nis[n]` only for `n` in `layout.ni_lists[s]`, and
/// `now[s]`/`next[s]`/`scratch[s]` only at its own index. Of the flat
/// `shards × shards` lane matrices it writes only row `s` of `lanes_next`
/// (`[s * shards, (s + 1) * shards)`) and drains only column `s` of
/// `lanes_now` (`src * shards + s` for each `src`) — rows and columns each
/// belong to exactly one shard and the two matrices are distinct buffers, so
/// no element is aliased across concurrently running shards.
struct ShardCtx<'a> {
    layout: &'a ShardLayout,
    wiring: &'a FlatWiring,
    cycle: u64,
    shards: usize,
    /// Whether to count drained lanes into `ShardScratch::lanes_merged`
    /// (`--metrics=full` coordination histograms).
    count_lanes: bool,
    /// The shared flit slab (read-only here: ejection sanity checks peek at
    /// flit bodies; shard-local allocation goes through each interface's own
    /// pool handle).
    pool: *const FlitPool,
    routers: *mut Box<dyn RouterModel>,
    nis: *mut NetworkInterface,
    now: *mut ShardOutbox,
    next: *mut ShardOutbox,
    lanes_now: *mut LanePair,
    lanes_next: *mut LanePair,
    scratch: *mut ShardScratch,
}

// Safety: see the disjointness argument on `ShardCtx`; all shared references
// inside point to `Sync` data read-only during the parallel phase.
unsafe impl Sync for ShardCtx<'_> {}

/// Runs one shard's slice of a cycle: drains the shard's inbound event lanes
/// (the fused merge — this *is* the delivery of last cycle's cross-shard
/// emissions), steps its interfaces, then steps its routers, writing all
/// emissions into the shard's own outbox row.
///
/// Per-receiver event order is identical to the serial engine: interface
/// emissions land before router emissions, and router emissions land in
/// ascending source-shard order, which (shards being contiguous index
/// ranges) is ascending router-index order. Skipped source shards
/// contribute empty lanes — had they emitted anything, their `dest_mask`
/// would have forced them pending and they would not have been skipped.
///
/// # Safety
///
/// Caller must guarantee `s < ctx.layout.shards()`, that every raw pointer in
/// `ctx` is valid for the vectors described on [`ShardCtx`], and that no two
/// concurrent calls share a shard index.
unsafe fn step_shard(ctx: &ShardCtx<'_>, s: usize) {
    let layout = ctx.layout;
    let wiring = ctx.wiring;
    let cycle = ctx.cycle;
    let shards = ctx.shards;
    let now = &mut *ctx.now.add(s);
    let next = &mut *ctx.next.add(s);
    let scratch = &mut *ctx.scratch.add(s);
    let (router_out, ni_out) = (&mut scratch.router_out, &mut scratch.ni_out);
    let (router_work, ni_work) = (&mut scratch.router_work, &mut scratch.ni_work);
    next.dest_mask.clear_all();
    let mut lanes_merged = 0u64;

    // Inbound flits: interface emissions first, then router emissions in
    // ascending source-shard order. Receiving routers join the worklist.
    // Draining (rather than copying) the lanes empties them in place, with
    // capacity retained — delivery and retirement are one pass.
    if ctx.count_lanes && !now.ni_flits.is_empty() {
        lanes_merged += 1;
    }
    for (router, port, flit) in now.ni_flits.drain(..) {
        router_work.set(router.index());
        (*ctx.routers.add(router.index())).receive_flit(port, flit);
    }
    for src in 0..shards {
        let lane = &mut *ctx.lanes_now.add(src * shards + s);
        if ctx.count_lanes && !lane.flits.is_empty() {
            lanes_merged += 1;
        }
        for (router, port, flit) in lane.flits.drain(..) {
            router_work.set(router.index());
            (*ctx.routers.add(router.index())).receive_flit(port, flit);
        }
    }

    // Inbound credits, same ordering.
    if ctx.count_lanes && !now.ni_credits.is_empty() {
        lanes_merged += 1;
    }
    for (router, out_port, credit) in now.ni_credits.drain(..) {
        router_work.set(router.index());
        (*ctx.routers.add(router.index())).receive_credit(out_port, credit);
    }
    for src in 0..shards {
        let lane = &mut *ctx.lanes_now.add(src * shards + s);
        if ctx.count_lanes && !lane.credits.is_empty() {
            lanes_merged += 1;
        }
        for (router, out_port, credit) in lane.credits.drain(..) {
            router_work.set(router.index());
            (*ctx.routers.add(router.index())).receive_credit(out_port, credit);
        }
    }

    // Interface injection and ejection-credit return, for the interfaces
    // that have either to do, in ascending node order. The others' `step`
    // would emit nothing and change nothing.
    for &n in &layout.ni_lists[s] {
        debug_assert!(
            ni_work.get(n) || !(*ctx.nis.add(n)).has_step_work(),
            "interface {n} has step work but is off its shard's worklist"
        );
    }
    ni_work.retain(|n| {
        let ni = &mut *ctx.nis.add(n);
        ni_out.clear();
        ni.step(cycle, s, ni_out);
        let (router, local) = wiring.attach_of(ni.node());
        if let Some(flit) = ni_out.flit.take() {
            next.ni_flits.push((router, local, flit));
        }
        for vc in ni_out.credits.drain(..) {
            next.ni_credits.push((router, local, Credit::new(vc)));
        }
        // An interface still holding injection work must step again next
        // cycle even if no event reaches this shard in between.
        ni.has_step_work()
    });

    // Routers advance and emit, in ascending index order. A router is
    // skipped only when it received no event since its last step AND
    // certified after that step that the next one would be a no-op — so
    // skipping cannot change behaviour.
    for r in layout.ranges[s].clone() {
        debug_assert!(
            router_work.get(r) || (*ctx.routers.add(r)).is_idle(),
            "router {r} is skipped but no longer idle"
        );
    }
    router_work.retain(|r| {
        let model = &mut *ctx.routers.add(r);
        let router = RouterId::new(r);
        router_out.clear();
        model.step(cycle, router_out);
        for sent in router_out.flits.drain(..) {
            if sent.out_port.index() < wiring.concentration() {
                let node = wiring
                    .eject_node(router, sent.out_port)
                    .unwrap_or_else(|| panic!("{router} ejects on unattached port"));
                debug_assert_eq!(
                    (*ctx.pool).get(sent.flit).dst,
                    node,
                    "misrouted ejection at {router}"
                );
                next.node_flits.push((node, sent.flit));
            } else {
                let end = wiring.link(router, sent.out_port, sent.hops);
                let dest = layout.dest_shard(end.router.index());
                next.dest_mask.set(dest);
                (*ctx.lanes_next.add(s * shards + dest))
                    .flits
                    .push((end.router, end.port, sent.flit));
            }
        }
        for (in_port, vc) in router_out.credits.drain(..) {
            match wiring.feeder(router, in_port) {
                PortFeeder::Channel {
                    router: up,
                    out_port,
                    sub,
                } => {
                    let dest = layout.dest_shard(up.index());
                    next.dest_mask.set(dest);
                    (*ctx.lanes_next.add(s * shards + dest)).credits.push((
                        up,
                        out_port,
                        Credit { vc, sub },
                    ));
                }
                PortFeeder::Node(node) => {
                    next.node_credits.push((node, Credit::new(vc)));
                }
                PortFeeder::None => {
                    panic!("{router} returned credit on unwired input {in_port}")
                }
            }
        }
        // A router left non-idle must step again next cycle regardless of
        // inbound events (it is holding flits mid-pipeline).
        !model.is_idle()
    });

    // Intra-shard emissions (NI injections, ejections, node credits) are
    // consumed by this shard itself — node lanes via the driver's serial
    // phase 1 feeding interfaces that then owe ejection credits, NI lanes
    // via this shard's own scan — so any of them pending marks this shard.
    if !next.is_empty() {
        next.dest_mask.set(s);
    }
    scratch.busy = router_work.any() || ni_work.any();
    scratch.lanes_merged = lanes_merged;
}

/// A fully wired network plus its workload: the top-level simulation object.
pub struct Simulation {
    topo: SharedTopology,
    config: NetworkConfig,
    metrics: MetricsConfig,
    /// The shared flit slab. Every flit body lives here from injection to
    /// ejection; routers, interfaces and event lanes move 4-byte
    /// [`FlitRef`]s. Sized at construction to the structural maximum of
    /// live flits (see DESIGN.md §19), so steady state never allocates.
    pool: Arc<FlitPool>,
    routers: Vec<Box<dyn RouterModel>>,
    nis: Vec<NetworkInterface>,
    traffic: Box<dyn TrafficModel>,
    /// Flattened forward/reverse wiring (links, credit sinks, attachments).
    wiring: FlatWiring,
    /// Thread budget for the parallel stepping phase (1 = fully serial).
    threads: usize,
    /// Router/interface partition driving the parallel phase.
    layout: ShardLayout,
    /// Intra-shard outboxes being delivered this cycle (drained in place).
    now: Vec<ShardOutbox>,
    /// Intra-shard outboxes filled this cycle for delivery next cycle.
    next: Vec<ShardOutbox>,
    /// Cross-shard lane matrix being drained this cycle (`src * shards +
    /// dest`; shard `s` owns column `s`).
    lanes_now: Vec<LanePair>,
    /// Cross-shard lane matrix being filled this cycle (shard `s` owns row
    /// `s`).
    lanes_next: Vec<LanePair>,
    /// Shards that must step this cycle: every shard some ran shard
    /// addressed events to, every shard with a non-empty router or interface
    /// worklist, plus phase-2 injection targets. All-set after
    /// (re)construction.
    pending: WordMask,
    /// Reusable compaction of `pending` into job indices for the pool.
    worklist: Vec<usize>,
    /// Per-shard reusable emission buffers, RNG streams and router/interface
    /// worklists.
    scratch: Vec<ShardScratch>,
    /// Nodes whose interface completed a packet in this cycle's phase 1 —
    /// the only ones phase 4 has deliveries to drain from.
    delivered: WordMask,
    cycle: u64,
    next_packet_id: u64,
    stats: SimStats,
    request_buf: Vec<noc_traffic::PacketRequest>,
    /// Whether quiescence-driven cycle fast-forwarding is enabled (on from
    /// construction; [`set_fast_forward`](Self::set_fast_forward) is the
    /// reference switch).
    fast_forward: bool,
    /// Cycles skipped by fast-forwarding since construction (diagnostics
    /// only; never part of the report).
    fast_forwarded: u64,
    /// Coordination-cost accumulation, allocated only at `--metrics=full`.
    coordination: Option<CoordinationStats>,
    /// Whether the network is provably quiescent, maintained incrementally:
    /// a full component scan runs only on (re)construction (cold path);
    /// after every step the flag is recomputed in O(1) from the pending
    /// mask. `debug_assert`ed against the full scan on every read.
    quiescent: bool,
    /// Whether any emitted event awaits delivery (any lane or outbox
    /// non-empty), maintained incrementally alongside `quiescent`. Weaker
    /// than quiescence — routers/interfaces may still hold internal work —
    /// and exactly the condition [`set_threads`](Self::set_threads) needs.
    events_in_flight: bool,
}

impl Simulation {
    /// Builds a simulation with observability disabled (the default): see
    /// [`Simulation::with_metrics`].
    pub fn new(
        topo: SharedTopology,
        config: NetworkConfig,
        traffic: Box<dyn TrafficModel>,
        factory: &dyn RouterFactory,
        seed: u64,
    ) -> Self {
        Self::with_metrics(topo, config, MetricsConfig::off(), traffic, factory, seed)
    }

    /// The structural maximum of simultaneously live flits, which the flit
    /// slab is sized to (in `u64`: the inputs are user-supplied, and
    /// [`FlitPool::MAX_CAPACITY`] is what bounds them). Credit-based flow
    /// control caps buffered-plus-in-flight flits at the total router buffer
    /// capacity (a flit on a link holds a reserved downstream slot); an
    /// interface's credit window plus one slot of slack per node covers
    /// injection lanes, ejection lanes and per-shard free-list hoarding
    /// (DESIGN.md §19 walks the bound).
    pub fn flit_capacity(topo: &dyn Topology, config: &NetworkConfig) -> u64 {
        let per_vc = u64::from(config.vcs_per_port) * u64::from(config.buffer_depth);
        let in_ports: u64 = (0..topo.num_routers())
            .map(|r| topo.in_ports(RouterId::new(r)) as u64)
            .sum();
        let nodes = topo.num_nodes() as u64;
        in_ports
            .saturating_mul(per_vc)
            .saturating_add(nodes.saturating_mul(per_vc + 1))
    }

    /// Builds a simulation: validates the topology, constructs one router
    /// per topology node via `factory` (passing `metrics` through the build
    /// context so instrumented models can enable their counters/tracers),
    /// attaches network interfaces, and precomputes the flat wiring tables
    /// the hot loop runs on.
    ///
    /// The engine starts single-threaded; call
    /// [`set_threads`](Self::set_threads) to enable parallel stepping.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails [`noc_topology::validate`].
    pub fn with_metrics(
        topo: SharedTopology,
        config: NetworkConfig,
        metrics: MetricsConfig,
        traffic: Box<dyn TrafficModel>,
        factory: &dyn RouterFactory,
        seed: u64,
    ) -> Self {
        noc_topology::validate(topo.as_ref())
            .unwrap_or_else(|e| panic!("invalid topology {}: {e}", topo.name()));
        let seeds = SeedStream::new(seed);

        let capacity = usize::try_from(Self::flit_capacity(topo.as_ref(), &config))
            .expect("the flit capacity fits usize (noc_campaign::validate bounds it)");
        let pool = Arc::new(FlitPool::new(capacity, topo.num_routers().max(1)));

        let routers: Vec<Box<dyn RouterModel>> = (0..topo.num_routers())
            .map(|r| {
                factory.build(RouterBuildContext {
                    id: RouterId::new(r),
                    topology: &topo,
                    config: &config,
                    seed: seeds.router(r),
                    metrics: &metrics,
                    pool: &pool,
                })
            })
            .collect();
        let nis: Vec<NetworkInterface> = (0..topo.num_nodes())
            .map(|n| {
                NetworkInterface::new(
                    NodeId::new(n),
                    topo.clone(),
                    config,
                    seeds.interface(n),
                    pool.clone(),
                )
            })
            .collect();

        let wiring = FlatWiring::new(topo.as_ref());
        let delivered = WordMask::new(nis.len());
        let layout = ShardLayout::new(1, routers.len(), nis.len(), &wiring);
        let coordination = (metrics.level == MetricsLevel::Full).then(CoordinationStats::default);

        let mut sim = Self {
            topo,
            config,
            metrics,
            pool,
            routers,
            nis,
            traffic,
            wiring,
            threads: 1,
            layout,
            now: Vec::new(),
            next: Vec::new(),
            lanes_now: Vec::new(),
            lanes_next: Vec::new(),
            pending: WordMask::new(1),
            worklist: Vec::new(),
            scratch: Vec::new(),
            delivered,
            cycle: 0,
            next_packet_id: 0,
            stats: SimStats::new(0, u64::MAX),
            request_buf: Vec::new(),
            fast_forward: true,
            fast_forwarded: 0,
            coordination,
            quiescent: false,
            events_in_flight: false,
        };
        sim.rebuild_shards();
        sim
    }

    /// Rebuilds the shard partition, outboxes, lane matrices and scratch for
    /// the current thread budget. Cold path: runs at construction and on
    /// [`set_threads`](Self::set_threads), never per cycle.
    fn rebuild_shards(&mut self) {
        // The shard partition is changing, so per-shard free-list ownership
        // no longer matches: return every shard-local free ref to the global
        // list and let the per-cycle replenish redistribute under the new
        // layout.
        self.pool.reclaim_locals();
        // 2x over-partitioning gives the pool's dynamic index claiming room
        // to balance uneven shards (work stealing at shard granularity).
        let shards = if self.threads <= 1 {
            1
        } else {
            (self.threads * 2).min(self.routers.len().max(1))
        };
        self.layout = ShardLayout::new(shards, self.routers.len(), self.nis.len(), &self.wiring);
        let shards = self.layout.shards();
        self.now = (0..shards).map(|_| ShardOutbox::new(shards)).collect();
        self.next = (0..shards).map(|_| ShardOutbox::new(shards)).collect();
        self.lanes_now = (0..shards * shards).map(|_| LanePair::default()).collect();
        self.lanes_next = (0..shards * shards).map(|_| LanePair::default()).collect();
        // Everything is pending until the first step proves otherwise.
        self.pending = WordMask::new(shards);
        for s in 0..shards {
            self.pending.set(s);
        }
        self.worklist = Vec::with_capacity(shards);

        // Reserve the per-shard emission buffers to their structural maxima
        // — a router emits at most one flit per output port and one credit
        // per (input port, VC) per cycle — so the hot loop never grows them
        // (tests/zero_alloc.rs).
        let max_out = (0..self.routers.len())
            .map(|r| self.topo.out_ports(RouterId::new(r)))
            .max()
            .unwrap_or(0);
        let max_in = (0..self.routers.len())
            .map(|r| self.topo.in_ports(RouterId::new(r)))
            .max()
            .unwrap_or(0);
        let vcs = self.config.vcs_per_port as usize;
        self.scratch = (0..shards)
            .map(|s| {
                let mut router_out = RouterOutputs::default();
                router_out.flits.reserve(max_out);
                router_out.credits.reserve(max_in * vcs);
                // The worklists restart from what each component certifies
                // now; `step_shard` keeps them exact from here on.
                let mut router_work = WordMask::new(self.routers.len());
                for r in self.layout.ranges[s].clone() {
                    router_work.assign(r, !self.routers[r].is_idle());
                }
                let mut ni_work = WordMask::new(self.nis.len());
                for &n in &self.layout.ni_lists[s] {
                    ni_work.assign(n, self.nis[n].has_step_work());
                }
                ShardScratch {
                    router_out,
                    ni_out: NiOutputs::default(),
                    router_work,
                    ni_work,
                    busy: false,
                    lanes_merged: 0,
                }
            })
            .collect();

        // Reserve every event lane to its structural maximum as well, so no
        // worker thread ever grows a lane mid-run: per cycle a router emits
        // at most one flit per output port and one credit per (input port,
        // VC), an interface injects at most one flit and returns at most one
        // ejection credit. Multidrop channels can land a given port's flit
        // in different shards on different cycles, so each cross-shard cell
        // of a source shard's row is sized for the whole shard's emission
        // capacity.
        let conc = self.wiring.concentration();
        for s in 0..shards {
            let ni_count = self.layout.ni_lists[s].len();
            let mut net_out = 0usize;
            let mut credit_cap = 0usize;
            let mut node_credit_cap = 0usize;
            for r in self.layout.ranges[s].clone() {
                let out = self.topo.out_ports(RouterId::new(r));
                let inp = self.topo.in_ports(RouterId::new(r));
                net_out += out.saturating_sub(conc);
                credit_cap += inp * vcs;
                node_credit_cap += conc.min(inp) * vcs;
            }
            for buffer in [&mut self.now[s], &mut self.next[s]] {
                buffer.ni_flits.reserve(ni_count);
                buffer.ni_credits.reserve(ni_count);
                buffer.node_flits.reserve(ni_count);
                buffer.node_credits.reserve(node_credit_cap);
            }
            for d in 0..shards {
                for matrix in [&mut self.lanes_now, &mut self.lanes_next] {
                    let cell = &mut matrix[s * shards + d];
                    cell.flits.reserve(net_out);
                    cell.credits.reserve(credit_cap);
                }
            }
        }

        // The lanes were just recreated empty, and quiescence must be
        // re-established by a full component scan — the cold-path
        // counterpart of the O(1) per-step update in `step`.
        self.events_in_flight = false;
        self.quiescent = self.scan_quiescent();
    }

    /// Sets the thread count of the parallel stepping phase (at least 1) and
    /// re-shards the network accordingly. A command, not a request: nothing
    /// here looks at the host — a caller with a budget to respect (`noc run`)
    /// caps the count before it calls. Thread count never affects results:
    /// the golden `SimReport` is byte-identical for any value, including 1.
    ///
    /// # Panics
    ///
    /// Panics when events are in flight — call between runs, not mid-cycle.
    pub fn set_threads(&mut self, threads: usize) {
        debug_assert_eq!(
            self.events_in_flight,
            !(self.now.iter().all(ShardOutbox::is_empty)
                && self.next.iter().all(ShardOutbox::is_empty)
                && self.lanes_now.iter().all(LanePair::is_empty)
                && self.lanes_next.iter().all(LanePair::is_empty)),
            "events_in_flight flag out of sync with lane state"
        );
        assert!(
            !self.events_in_flight,
            "set_threads requires no in-flight events (call it between runs)"
        );
        let threads = threads.max(1);
        if threads == self.threads {
            return; // already sharded for this budget (construction: 1)
        }
        self.threads = threads;
        self.rebuild_shards();
    }

    /// The thread budget for the parallel stepping phase.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The number of execution shards the routers are partitioned into.
    pub fn shards(&self) -> usize {
        self.layout.shards()
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The shared network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The observability configuration this simulation was built with.
    pub fn metrics(&self) -> &MetricsConfig {
        &self.metrics
    }

    /// Merges every traced router's event ring into one Chrome-trace-format
    /// JSON document, or `None` when no router carries a tracer (load the
    /// result at `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace(&self) -> Option<String> {
        if self.routers.iter().all(|r| r.tracer().is_none()) {
            return None;
        }
        Some(chrome_trace_json(
            self.routers.iter().filter_map(|r| r.tracer()),
        ))
    }

    /// The topology driving the wiring.
    pub fn topology(&self) -> &SharedTopology {
        &self.topo
    }

    /// The precomputed wiring tables the engine routes events through.
    pub fn wiring(&self) -> &FlatWiring {
        &self.wiring
    }

    /// Read access to one router (for white-box tests).
    pub fn router(&self, id: RouterId) -> &dyn RouterModel {
        self.routers[id.index()].as_ref()
    }

    /// Read access to one network interface.
    pub fn interface(&self, node: NodeId) -> &NetworkInterface {
        &self.nis[node.index()]
    }

    /// Read access to the traffic model (for model-specific statistics via
    /// [`noc_traffic::TrafficModel::as_any`]).
    pub fn traffic_model(&self) -> &dyn TrafficModel {
        self.traffic.as_ref()
    }

    /// Advances the simulation one cycle.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        std::mem::swap(&mut self.now, &mut self.next);
        std::mem::swap(&mut self.lanes_now, &mut self.lanes_next);

        // Phase 1 (serial): deliver interface-bound events. These lanes are
        // intra-shard, but interface receipt feeds reassembly and delivery
        // statistics, so they stay on the driver thread; scanning shards
        // ascending reproduces the serial engine's ascending router-index
        // emission order. (The producing shard already marked itself pending
        // for this cycle when it filled these lanes, so the ejection credits
        // these receipts create are returned by this cycle's phase 3.)
        {
            let nis = &mut self.nis;
            for (outbox, scratch) in self.now.iter_mut().zip(&mut self.scratch) {
                for (node, flit) in outbox.node_flits.drain(..) {
                    // The receipt owes the router an ejection credit, which
                    // the interface's next step returns.
                    scratch.ni_work.set(node.index());
                    if nis[node.index()].receive_flit(cycle, flit) {
                        self.delivered.set(node.index());
                    }
                }
            }
            for outbox in self.now.iter_mut() {
                for (node, credit) in outbox.node_credits.drain(..) {
                    nis[node.index()].receive_credit(credit);
                }
            }
        }

        // Phase 2 (serial): workload generation into source queues. A fresh
        // injection gives the source's interface step-work, so its shard
        // joins this cycle's pending set.
        let requests = &mut self.request_buf;
        debug_assert!(requests.is_empty());
        self.traffic.generate(cycle, &mut |r| requests.push(r));
        for request in self.request_buf.drain(..) {
            assert!(
                request.src.index().max(request.dst.index()) < self.nis.len(),
                "cycle {cycle}: request {} -> {} names an unknown node (the topology has {})",
                request.src,
                request.dst,
                self.nis.len()
            );
            let id = PacketId::new(self.next_packet_id);
            self.next_packet_id += 1;
            self.nis[request.src.index()].enqueue(cycle, &request, id);
            self.stats.on_injected(cycle);
            let shard = self.layout.node_shard[request.src.index()];
            self.scratch[shard].ni_work.set(request.src.index());
            self.pending.set(shard);
        }

        // Phase 3 (parallel over pending shards): drain inbound lanes, step
        // interfaces, step routers. Every shard touches only its own
        // routers, interfaces, outboxes, lane row/column and scratch, so the
        // shards are data-independent; with one pending shard or one thread
        // the pool runs this inline on the driver thread. Shards not in the
        // pending mask are provably no-ops: all their inbound lanes are
        // empty (a non-empty lane would have set their pending bit) and
        // their routers/interfaces certified idleness last time they ran.
        self.worklist.clear();
        self.worklist.extend(self.pending.iter());
        // Top up each stepping shard's local free stack to its injection
        // capacity (one flit per attached interface per cycle) before the
        // parallel phase, so shard-local allocation never touches the global
        // free list. Serial, and bounded by the pool's sizing argument:
        // skipped shards hoard at most one ref per attached node, which the
        // capacity's per-node slack term covers.
        for &s in &self.worklist {
            self.pool.replenish(s, self.layout.ni_lists[s].len());
        }
        let mut submitter_wait = 0u64;
        if !self.worklist.is_empty() {
            let ctx = ShardCtx {
                layout: &self.layout,
                wiring: &self.wiring,
                cycle,
                shards: self.layout.shards(),
                count_lanes: self.coordination.is_some(),
                pool: Arc::as_ptr(&self.pool),
                routers: self.routers.as_mut_ptr(),
                nis: self.nis.as_mut_ptr(),
                now: self.now.as_mut_ptr(),
                next: self.next.as_mut_ptr(),
                lanes_now: self.lanes_now.as_mut_ptr(),
                lanes_next: self.lanes_next.as_mut_ptr(),
                scratch: self.scratch.as_mut_ptr(),
            };
            let worklist: &[usize] = &self.worklist;
            // Safety: worklist entries are distinct shard indices (one per
            // set bit) and ctx's pointers cover the full vectors; see
            // `ShardCtx`.
            let job = |i: usize| unsafe { step_shard(&ctx, worklist[i]) };
            submitter_wait =
                noc_base::pool::global().run_limited_timed(worklist.len(), self.threads, &job);
        }

        // Recompute the pending mask from the shards that ran: their fresh
        // destination masks plus their own retained work. Skipped shards
        // contribute nothing — they emitted nothing and their stale masks
        // must not be re-read. The same pass maintains the O(1) quiescence
        // flags: a non-empty destination mask means some lane holds an
        // undelivered event, and an empty pending mask means no events are
        // in flight AND every stepped component certified idleness — any
        // interface mid-reassembly implies upstream flits that keep a
        // router busy or a lane non-empty, and delivered packets drain
        // every phase 4, so the pending mask sees through to full
        // quiescence.
        self.pending.clear_all();
        let mut events = false;
        for &s in &self.worklist {
            events |= self.next[s].dest_mask.any();
            self.pending.union_with(&self.next[s].dest_mask);
            if self.scratch[s].busy {
                self.pending.set(s);
            }
        }
        self.events_in_flight = events;
        self.quiescent = !self.pending.any();

        if let Some(coord) = &mut self.coordination {
            if self.worklist.is_empty() {
                coord.skipped_epochs += 1;
            } else {
                coord.epochs += 1;
                coord.wait_ns_total += submitter_wait;
                coord.submitter_wait_ns.record(submitter_wait);
                let lanes: u64 = self
                    .worklist
                    .iter()
                    .map(|&s| self.scratch[s].lanes_merged)
                    .sum();
                coord.lanes_merged_total += lanes;
                coord.lanes_merged.record(lanes);
            }
        }

        // Phase 4 (serial): completed deliveries feed statistics and the
        // (possibly closed-loop) workload, in ascending node order — the
        // floating-point accumulation order is part of the golden contract.
        let Simulation {
            nis,
            stats,
            traffic,
            topo,
            delivered,
            ..
        } = self;
        for n in delivered.iter() {
            for packet in nis[n].drain_delivered() {
                // Minimal routing: actual hops equal the topological minimum.
                let hops = topo.min_hops(packet.src, packet.dst);
                stats.on_delivered(&packet, hops);
                traffic.deliver(cycle, &packet);
            }
        }
        delivered.clear_all();

        self.cycle += 1;
    }

    /// Enables or disables quiescence-driven cycle fast-forwarding (default:
    /// on). Fast-forwarding never changes results — only how fast provably
    /// idle cycles pass; this switch exists so tests/prop_fastforward.rs can
    /// pin the on/off report identity against the stepped reference.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Cycles skipped by fast-forwarding since construction.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded
    }

    /// Whether the network is provably quiescent: stepping it (without new
    /// injections) would change nothing but the clock.
    ///
    /// O(1): reads the flag `step` maintains from the pending mask — an
    /// empty pending mask means no lane holds an undelivered event and
    /// every component certified idleness when it last stepped. The flag is
    /// `debug_assert`ed against the full component scan
    /// ([`scan_quiescent`](Self::scan_quiescent)) on every read, so any
    /// divergence fails loudly under `cargo test`.
    fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.quiescent,
            self.scan_quiescent(),
            "incremental quiescence flag out of sync with full scan"
        );
        self.quiescent
    }

    /// Full-scan quiescence check, cheapest condition first — the cold-path
    /// reference the incremental flag is derived from (at
    /// [`rebuild_shards`](Self::rebuild_shards)) and asserted against:
    ///
    /// - no event is in flight (every intra-shard lane and every cell of
    ///   both cross-shard lane matrices is empty — no flit or credit awaits
    ///   delivery);
    /// - every interface is idle (nothing queued, serializing, reassembling
    ///   or awaiting drain);
    /// - every router certifies `is_idle` (the same exact step-is-no-op
    ///   predicates the active-router worklist relies on).
    fn scan_quiescent(&self) -> bool {
        self.next.iter().all(ShardOutbox::is_empty)
            && self.now.iter().all(ShardOutbox::is_empty)
            && self.lanes_now.iter().all(LanePair::is_empty)
            && self.lanes_next.iter().all(LanePair::is_empty)
            && self.nis.iter().all(NetworkInterface::is_idle)
            && self.routers.iter().all(|r| r.is_idle())
    }

    /// Attempts to jump the clock over provably idle cycles. Returns how
    /// many cycles were skipped (0..=`limit`).
    ///
    /// A skip is taken only when the network [is
    /// quiescent](Self::is_quiescent) AND the traffic model guarantees (via
    /// [`TrafficModel::next_injection_cycle`]) that it emits nothing before
    /// the target cycle. Every skipped cycle would have been a full no-op
    /// step: no event delivery, no injection, no router or interface state
    /// change, no stats/energy/histogram/trace event — those are all
    /// event-driven, and there are no events. Only `self.cycle` advances,
    /// exactly as it would have. (The coordination metrics count only
    /// *stepped* cycles, so fast-forwarding does not touch them either.)
    fn try_fast_forward(&mut self, limit: u64) -> u64 {
        if !self.fast_forward || limit == 0 || !self.is_quiescent() {
            return 0;
        }
        let horizon = self.cycle + limit;
        let Some(t) = self.traffic.next_injection_cycle(self.cycle, horizon) else {
            return 0;
        };
        debug_assert!(
            t >= self.cycle && t <= horizon,
            "traffic model predicted outside [from, horizon]"
        );
        let skipped = t.clamp(self.cycle, horizon) - self.cycle;
        self.cycle += skipped;
        self.fast_forwarded += skipped;
        skipped
    }

    /// Advances the simulation by `cycles` cycles, fast-forwarding through
    /// quiescent stretches when enabled. Equivalent to `cycles` calls to
    /// [`step`](Self::step) in every observable respect.
    pub fn advance(&mut self, cycles: u64) {
        let mut remaining = cycles;
        while remaining > 0 {
            remaining -= self.try_fast_forward(remaining);
            if remaining == 0 {
                break;
            }
            self.step();
            remaining -= 1;
        }
    }

    /// Runs warmup + measurement + drain and produces the report.
    ///
    /// Measurement covers packets created in
    /// `[spec.warmup, spec.warmup + spec.measure)`. After the window closes
    /// the simulation keeps stepping until every measured packet is delivered
    /// or `spec.drain` extra cycles elapse. (The drain loop needs no
    /// fast-forward path: a measured packet still in flight keeps some
    /// interface or router non-quiescent until it is delivered, at which
    /// point the loop exits.)
    pub fn run(&mut self, spec: RunSpec) -> SimReport {
        let start = self.cycle;
        self.stats = SimStats::new(start + spec.warmup, start + spec.warmup + spec.measure);
        self.advance(spec.warmup + spec.measure);
        let mut drained_cycles = 0;
        while self.stats.measured_in_flight() > 0 && drained_cycles < spec.drain {
            self.step();
            drained_cycles += 1;
        }
        self.report(spec)
    }

    /// Builds a report from the current statistics. Per-router counters and
    /// energy are merged here in ascending router-index order, regardless of
    /// which shard (and thread) accumulated them.
    fn report(&self, spec: RunSpec) -> SimReport {
        let router_stats = self
            .routers
            .iter()
            .map(|r| r.stats())
            .fold(crate::RouterStats::default(), |a, b| a + b);
        let energy = self
            .routers
            .iter()
            .map(|r| r.energy())
            .fold(EnergyCounters::default(), |a, b| a + b);
        let (hits, total) = self.nis.iter().fold((0u64, 0u64), |(h, t), ni| {
            (h + ni.stats().locality_hits, t + ni.stats().locality_total)
        });
        let nodes = self.nis.len().max(1) as f64;
        SimReport {
            topology: self.topo.name().to_string(),
            traffic: self.traffic.name().to_string(),
            cycles: self.cycle,
            avg_latency: self.stats.avg_latency(),
            avg_hops: self.stats.avg_hops(),
            p99_latency_bound: self.stats.histogram.quantile_bound(0.99),
            measured_injected: self.stats.measured_injected,
            measured_delivered: self.stats.measured_delivered,
            delivered_packets: self.stats.delivered_packets,
            throughput: if spec.measure == 0 {
                0.0
            } else {
                self.stats.measured_flits as f64 / (spec.measure as f64 * nodes)
            },
            router_stats,
            energy,
            energy_breakdown: energy_breakdown_of(&energy),
            end_to_end_locality: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
            drained: self.stats.measured_in_flight() == 0,
            final_backlog: self.nis.iter().map(|ni| ni.backlog() as u64).sum(),
            observability: (self.metrics.level == MetricsLevel::Full).then(|| {
                let mut obs = ObservabilityReport::from_routers(
                    self.routers
                        .iter()
                        .enumerate()
                        .map(|(i, r)| {
                            r.observation().unwrap_or_else(|| {
                                // Uninstrumented models still occupy a slot so
                                // router indices stay aligned.
                                crate::metrics::RouterObservation::zeroed(
                                    i,
                                    self.topo.in_ports(RouterId::new(i)),
                                    self.topo.out_ports(RouterId::new(i)),
                                )
                            })
                        })
                        .collect(),
                );
                obs.coordination = self.coordination.clone();
                obs
            }),
        }
    }
}
