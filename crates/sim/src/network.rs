//! Network assembly and the cycle-accurate simulation driver.
//!
//! The engine is cycle-driven with two-phase event delivery: everything a
//! router or network interface emits at cycle `c` is delivered at `c + 1`
//! (one-cycle link and credit-return latency), so evaluation order within a
//! cycle cannot leak information between components.
//!
//! The hot loop runs on precomputed state only. At construction every
//! per-event topology lookup is flattened into the [`FlatWiring`] index
//! tables, events travel through typed double-buffered vectors (no enum
//! dispatch, capacity reused across cycles), and worklist masks name the
//! routers and interfaces that have anything to do, so a component that is
//! provably quiescent costs a clear bit. In steady state the loop performs
//! zero heap allocations.
//!
//! # One serial loop, one event order
//!
//! [`Simulation::step`] runs four phases on the calling thread (DESIGN.md
//! §10). Every event vector keeps emission order, and emission order is
//! fixed: interfaces step before routers, routers in ascending index, and
//! the ejection credits phase 1 hands back enter the router-bound credit
//! vector before any router steps. So a receiver sees interface emissions
//! before router emissions, router emissions in ascending source index, and
//! an ejection credit one cycle after the flit it frees. Parallelism lives
//! across simulations (a campaign's points, one per thread of its batch),
//! never inside one.

use crate::metrics::{chrome_trace_json, MetricsConfig, MetricsLevel, ObservabilityReport};
use crate::ni::NetworkInterface;
use crate::router::{RouterBuildContext, RouterFactory, RouterModel, RouterOutputs};
use crate::stats::{energy_breakdown_of, SimReport, SimStats};
use crate::{NetworkConfig, RunSpec};
use noc_base::bitset::WordMask;
use noc_base::rng::SeedStream;
use noc_base::{Credit, FlitPool, FlitRef, NodeId, PacketId, PortIndex, RouterId, VcIndex};
use noc_energy::EnergyCounters;
use noc_topology::{FlatWiring, PortFeeder, SharedTopology, Topology};
use noc_traffic::TrafficModel;
use std::cell::RefCell;
use std::sync::Arc;

/// One cycle's emissions, for delivery the next cycle, split by event kind
/// and receiver so each vector is a flat tuple list drained without enum
/// dispatch. Each vector holds its events in emission order.
#[derive(Default, Debug)]
struct Events {
    /// Flits entering routers `(router, input port, flit)`: interface
    /// injections, then link flits by ascending source router.
    router_flits: Vec<(RouterId, PortIndex, FlitRef)>,
    /// Credits for router output ports `(router, output port, credit)`:
    /// ejection credits handed back in phase 1, then upstream credits by
    /// ascending source router.
    router_credits: Vec<(RouterId, PortIndex, Credit)>,
    /// Ejections to interfaces, by ascending source router.
    node_flits: Vec<(NodeId, FlitRef)>,
    /// Injection credits returned to interfaces, by ascending source router.
    node_credits: Vec<(NodeId, Credit)>,
}

impl Events {
    fn is_empty(&self) -> bool {
        self.router_flits.is_empty()
            && self.router_credits.is_empty()
            && self.node_flits.is_empty()
            && self.node_credits.is_empty()
    }

    /// Flits in transit: each holds a pool slot no component owns yet.
    fn flits(&self) -> usize {
        self.router_flits.len() + self.node_flits.len()
    }
}

/// A fully wired network plus its workload: the top-level simulation object.
pub struct Simulation {
    topo: SharedTopology,
    config: NetworkConfig,
    metrics: MetricsConfig,
    /// The shared flit slab. Every flit body lives here from injection to
    /// ejection; routers, interfaces and event vectors move 4-byte
    /// [`FlitRef`]s. Sized at construction to the structural maximum of
    /// live flits (see DESIGN.md §19), so steady state never allocates.
    pool: Arc<FlitPool>,
    routers: Vec<Box<dyn RouterModel>>,
    nis: Vec<NetworkInterface>,
    traffic: Box<dyn TrafficModel>,
    /// Flattened forward/reverse wiring (links, credit sinks, attachments).
    wiring: FlatWiring,
    /// Events being delivered this cycle (drained in place).
    now: Events,
    /// Events emitted this cycle for delivery next cycle.
    next: Events,
    /// Reusable emission buffer of one router step.
    router_out: RouterOutputs,
    /// Routers whose `step` must run: bit set when a flit is delivered to
    /// the router or a credit leaves it no longer [`RouterModel::is_idle`],
    /// and kept after a step while the router does not certify idleness. A
    /// router changes state only through `receive_*` and `step`, so a clear
    /// bit means the idleness it certified after its last step, or after its
    /// last credit, still holds.
    router_work: WordMask,
    /// Interfaces whose `step` must run: bit set on `enqueue`, and kept
    /// after a step while [`NetworkInterface::has_step_work`] holds.
    ni_work: WordMask,
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
    /// Whether the network is provably quiescent, maintained incrementally:
    /// a full component scan runs only at construction; after every step the
    /// flag is recomputed in O(1) from the event vectors and worklists.
    /// `debug_assert`ed against the full scan on every read.
    quiescent: bool,
    /// Scratch of the credit law in [`audit`](Self::audit): one count per
    /// receiving VC, sized by the first audit and reused, so the audit that
    /// debug builds run after every step allocates nothing after the first.
    credit_tally: RefCell<Vec<u32>>,
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
    /// flits on injection and ejection links (DESIGN.md §19 walks the bound).
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

    /// Builds a simulation: flattens (and so checks) the topology's wiring,
    /// constructs one router per topology node via `factory` (passing
    /// `metrics` through the build context so instrumented models can enable
    /// their counters/tracers), attaches network interfaces, and sizes the
    /// event vectors the hot loop runs on.
    ///
    /// # Panics
    ///
    /// Panics with `invalid topology {name}: {violation}`, before any router
    /// is built, if the topology fails [`noc_topology::validate`] (which
    /// [`FlatWiring::new`] checks as it walks the links).
    pub fn with_metrics(
        topo: SharedTopology,
        config: NetworkConfig,
        metrics: MetricsConfig,
        traffic: Box<dyn TrafficModel>,
        factory: &dyn RouterFactory,
        seed: u64,
    ) -> Self {
        let wiring = FlatWiring::new(topo.as_ref());
        let seeds = SeedStream::new(seed);

        let capacity = usize::try_from(Self::flit_capacity(topo.as_ref(), &config))
            .expect("the flit capacity fits usize (noc_campaign::validate bounds it)");
        let pool = Arc::new(FlitPool::new(capacity, 1));

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

        // Reserve every emission buffer to its structural maximum, so the
        // hot loop never grows one (tests/zero_alloc.rs): per cycle a router
        // emits at most one flit per output port and one credit per (input
        // port, VC), an interface injects at most one flit and hands back at
        // most one ejection credit.
        let vcs = config.vcs_per_port as usize;
        let conc = wiring.concentration();
        let (mut max_out, mut max_in) = (0, 0);
        let (mut link_flits, mut credits, mut node_credits) = (0, 0, 0);
        for r in 0..routers.len() {
            let out = wiring.out_ports(RouterId::new(r));
            let inp = wiring.in_ports(RouterId::new(r));
            max_out = max_out.max(out);
            max_in = max_in.max(inp);
            link_flits += out.saturating_sub(conc);
            credits += inp * vcs;
            node_credits += conc.min(inp) * vcs;
        }
        let events = || Events {
            router_flits: Vec::with_capacity(nis.len() + link_flits),
            router_credits: Vec::with_capacity(nis.len() + credits),
            node_flits: Vec::with_capacity(nis.len()),
            node_credits: Vec::with_capacity(node_credits),
        };
        let mut router_out = RouterOutputs::default();
        router_out.flits.reserve(max_out);
        router_out.credits.reserve(max_in * vcs);
        let (now, next) = (events(), events());

        let mut router_work = WordMask::new(routers.len());
        for (r, model) in routers.iter().enumerate() {
            router_work.assign(r, !model.is_idle());
        }
        let ni_work = WordMask::new(nis.len());
        let delivered = WordMask::new(nis.len());

        let mut sim = Self {
            topo,
            config,
            metrics,
            pool,
            routers,
            nis,
            traffic,
            wiring,
            now,
            next,
            router_out,
            router_work,
            ni_work,
            delivered,
            cycle: 0,
            next_packet_id: 0,
            stats: SimStats::new(0, u64::MAX),
            request_buf: Vec::new(),
            fast_forward: true,
            fast_forwarded: 0,
            quiescent: false,
            credit_tally: RefCell::new(Vec::new()),
        };
        sim.quiescent = sim.scan_quiescent();
        sim
    }

    /// Accepts a thread budget and ignores it: the engine is serial.
    ///
    /// Kept only because the repository benchmark (`crates/bench/benchmark`,
    /// which changes on its own schedule) calls it for its threads=2 report
    /// check; delete it together with that call.
    pub fn set_threads(&mut self, _threads: usize) {}

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

    /// Checks flit conservation between cycles: every pool slot in use
    /// (issued less free) is owned by exactly one holder — a router (buffered,
    /// or received and not yet stepped) or an event vector (in transit on a
    /// link). Interfaces hold none between cycles: one writes a flit into the
    /// pool as it emits it and frees the slot as it receives one. Then each
    /// router's own laws ([`RouterModel::audit`]), then the credit law on
    /// every link (`check_credits`). Returns the
    /// first violation, or `Ok` when every law holds.
    ///
    /// A full scan of every router's buffers and every event in flight:
    /// debug builds run it after every [`step`](Self::step), release builds
    /// only where a test calls it.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first violated law.
    pub fn audit(&self) -> Result<(), String> {
        // Free slots are the recycled ones plus those above the mark, so the
        // live ones are the issued slots not recycled.
        let live = self.pool.capacity() - self.pool.total_free();
        let routers: usize = self.routers.iter().map(|r| r.buffered_flits()).sum();
        let in_transit = self.now.flits() + self.next.flits();
        if live != routers + in_transit {
            return Err(format!(
                "cycle {}: flit conservation: the pool has {live} live slots, but routers hold \
                 {routers} and event vectors {in_transit}",
                self.cycle
            ));
        }
        let cycle = self.cycle;
        let routers = self.routers.iter().try_for_each(|r| r.audit());
        routers.map_err(|e| format!("cycle {cycle}: {e}"))?;
        self.check_credits()
            .map_err(|e| format!("cycle {cycle}: credit law: {e}"))
    }

    /// The credit law: on every VC of every link whose two ends keep credit
    /// books ([`RouterModel::credits`], [`RouterModel::flits_on`]), the
    /// upstream credits, the flits buffered or arrived downstream, the flits
    /// in flight on the link and the credits in flight back add up to the
    /// buffer depth. The links are each drop position of every router
    /// channel, every injection link (an interface's credits) and every
    /// ejection link (an interface frees what it receives at once, so it
    /// holds nothing). `Err` names the first link off the law, and whether a
    /// credit was lost or duplicated.
    fn check_credits(&self) -> Result<(), String> {
        let vcs = self.config.vcs_per_port as usize;
        let depth = self.config.buffer_depth as usize;
        let conc = self.wiring.concentration();
        let routers = self.routers.len();
        let wide = (0..routers)
            .map(|r| self.topo.in_ports(RouterId::new(r)))
            .max()
            .unwrap_or(0)
            * vcs;
        // One count per receiving VC: input VC `(r, q, v)`, then VC `v` of
        // interface `n`'s ejection link.
        let router_vc =
            |r: RouterId, q: PortIndex, v: VcIndex| r.index() * wide + q.index() * vcs + v.index();
        let node_vc = |n: NodeId, v: VcIndex| routers * wide + n.index() * vcs + v.index();
        // The receiving VC of the link out of drop position `sub` of `(r, p)`.
        let receiver = |r: RouterId, p: PortIndex, sub: u8, v: VcIndex| {
            if p.index() < conc {
                let node = self.wiring.eject_node(r, p);
                node_vc(node.expect("a credit returns to an attached port"), v)
            } else {
                let end = self.wiring.link(r, p, sub + 1);
                router_vc(end.router, end.port, v)
            }
        };
        let mut tally = self.credit_tally.borrow_mut();
        tally.clear();
        tally.resize(routers * wide + self.nis.len() * vcs, 0);
        for events in [&self.now, &self.next] {
            for &(r, q, flit) in &events.router_flits {
                tally[router_vc(r, q, self.pool.get(flit).vc)] += 1;
            }
            for &(n, flit) in &events.node_flits {
                tally[node_vc(n, self.pool.get(flit).vc)] += 1;
            }
            for &(r, p, credit) in &events.router_credits {
                tally[receiver(r, p, credit.sub, credit.vc)] += 1;
            }
            for &(n, credit) in &events.node_credits {
                let (r, q) = self.wiring.attach_of(n);
                tally[router_vc(r, q, credit.vc)] += 1;
            }
        }
        // The link is named only when the law fails: the audit runs after
        // every debug step and must not allocate.
        let law = |link: &dyn Fn() -> String, credits: u32, held: usize, in_flight: u32| {
            let total = credits as usize + held + in_flight as usize;
            if total == depth {
                return Ok(());
            }
            let fault = if total < depth { "lost" } else { "duplicated" };
            Err(format!(
                "{}: {credits} credits + {held} flits held + {in_flight} flits and \
                 credits in flight = {total}, not the buffer depth {depth} (a credit was \
                 {fault})",
                link()
            ))
        };
        for (r, model) in self.routers.iter().enumerate() {
            let r = RouterId::new(r);
            for q in (0..self.topo.in_ports(r)).map(PortIndex::new) {
                for v in (0..vcs).map(VcIndex::new) {
                    let credits = match self.wiring.feeder(r, q) {
                        PortFeeder::Channel {
                            router,
                            out_port,
                            sub,
                        } => self.routers[router.index()].credits(out_port, sub, v),
                        PortFeeder::Node(n) => Some(self.nis[n.index()].credits(v)),
                        PortFeeder::None => None,
                    };
                    let (Some(credits), Some(held)) = (credits, model.flits_on(q, v)) else {
                        continue;
                    };
                    let in_flight = tally[router_vc(r, q, v)];
                    law(
                        &|| format!("the link into {r} {q} {v}"),
                        credits,
                        held,
                        in_flight,
                    )?;
                }
            }
        }
        for n in (0..self.nis.len()).map(NodeId::new) {
            let (r, p) = self.wiring.attach_of(n);
            for v in (0..vcs).map(VcIndex::new) {
                let Some(credits) = self.routers[r.index()].credits(p, 0, v) else {
                    continue;
                };
                let in_flight = tally[node_vc(n, v)];
                law(
                    &|| format!("the ejection link into {n} {v}"),
                    credits,
                    0,
                    in_flight,
                )?;
            }
        }
        Ok(())
    }

    /// Advances the simulation one cycle.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        std::mem::swap(&mut self.now, &mut self.next);
        let Simulation {
            pool,
            routers,
            nis,
            traffic,
            wiring,
            now,
            next,
            router_out,
            router_work,
            ni_work,
            delivered,
            stats,
            request_buf,
            ..
        } = self;

        // Phase 1: interface-bound deliveries, in emission order. Each
        // ejected flit frees its slot and hands its ejection credit back
        // at once, for delivery to the router next cycle — ahead of every
        // credit a router emits this cycle.
        for (node, flit) in now.node_flits.drain(..) {
            let (vc, completed) = nis[node.index()].receive_flit(cycle, flit);
            let (router, local) = wiring.attach_of(node);
            next.router_credits.push((router, local, Credit::new(vc)));
            if completed {
                delivered.set(node.index());
            }
        }
        for (node, credit) in now.node_credits.drain(..) {
            nis[node.index()].receive_credit(credit);
        }

        // Phase 2: workload generation into source queues. A fresh
        // injection gives the source's interface step work.
        debug_assert!(request_buf.is_empty());
        traffic.generate(cycle, &mut |r| request_buf.push(r));
        for request in request_buf.drain(..) {
            assert!(
                request.src.index().max(request.dst.index()) < nis.len(),
                "cycle {cycle}: request {} -> {} names an unknown node (the topology has {})",
                request.src,
                request.dst,
                nis.len()
            );
            let id = PacketId::new(self.next_packet_id);
            self.next_packet_id += 1;
            nis[request.src.index()].enqueue(cycle, &request, id);
            stats.on_injected(cycle);
            ni_work.set(request.src.index());
        }

        // Phase 3: router-bound deliveries, then interface steps, then
        // router steps. Delivery drains the vectors in place, keeping their
        // capacity. A flit schedules its router; a credit schedules its
        // router only when the router stops certifying idleness: one left
        // off the worklist certified that its next step is a no-op, and a
        // credit that keeps that true (it refills a counter no flit or
        // circuit waits on) changes nothing the step would do. Checking
        // after every credit means the last check sees the state the step
        // would start from.
        for (router, port, flit) in now.router_flits.drain(..) {
            router_work.set(router.index());
            routers[router.index()].receive_flit(port, flit);
        }
        for (router, out_port, credit) in now.router_credits.drain(..) {
            let model = &mut routers[router.index()];
            model.receive_credit(out_port, credit);
            if !router_work.get(router.index()) && !model.is_idle() {
                router_work.set(router.index());
            }
        }

        // Interface injection, for the interfaces with a packet to send, in
        // ascending node order. The others' `step` would emit nothing and
        // change nothing.
        debug_assert!(
            (0..nis.len()).all(|n| ni_work.get(n) || !nis[n].has_step_work()),
            "an interface has step work but is off the worklist"
        );
        ni_work.retain(|n| {
            let ni = &mut nis[n];
            if let Some(flit) = ni.step(cycle) {
                let (router, local) = wiring.attach_of(ni.node());
                next.router_flits.push((router, local, flit));
            }
            ni.has_step_work()
        });

        // Routers advance and emit, in ascending index order. A router is
        // skipped only when it received no event since its last step AND
        // certified after that step that the next one would be a no-op — so
        // skipping cannot change behaviour.
        debug_assert!(
            (0..routers.len()).all(|r| router_work.get(r) || routers[r].is_idle()),
            "a router is skipped but no longer idle"
        );
        router_work.retain(|r| {
            let model = &mut routers[r];
            let router = RouterId::new(r);
            router_out.clear();
            model.step(cycle, router_out);
            for sent in router_out.flits.drain(..) {
                if sent.out_port.index() < wiring.concentration() {
                    let node = wiring
                        .eject_node(router, sent.out_port)
                        .unwrap_or_else(|| panic!("{router} ejects on unattached port"));
                    debug_assert_eq!(
                        pool.get(sent.flit).dst,
                        node,
                        "misrouted ejection at {router}"
                    );
                    next.node_flits.push((node, sent.flit));
                } else {
                    let end = wiring.link(router, sent.out_port, sent.hops);
                    next.router_flits.push((end.router, end.port, sent.flit));
                }
            }
            for (in_port, vc) in router_out.credits.drain(..) {
                match wiring.feeder(router, in_port) {
                    PortFeeder::Channel {
                        router: up,
                        out_port,
                        sub,
                    } => next.router_credits.push((up, out_port, Credit { vc, sub })),
                    PortFeeder::Node(node) => next.node_credits.push((node, Credit::new(vc))),
                    PortFeeder::None => {
                        panic!("{router} returned credit on unwired input {in_port}")
                    }
                }
            }
            // A router left non-idle must step again next cycle regardless
            // of inbound events (it is holding flits mid-pipeline).
            !model.is_idle()
        });

        // No event in flight and no component with work left means full
        // quiescence: an interface mid-reassembly implies upstream flits that
        // keep a router busy or an event vector non-empty, and delivered
        // packets drain every phase 4.
        self.quiescent = next.is_empty() && !router_work.any() && !ni_work.any();

        // Phase 4: completed deliveries feed statistics and the (possibly
        // closed-loop) workload, in ascending node order — the floating-point
        // accumulation order is part of the golden contract.
        for n in delivered.iter() {
            for packet in nis[n].drain_delivered() {
                // Minimal routing: actual hops equal the topological minimum.
                let hops = self.topo.min_hops(packet.src, packet.dst);
                stats.on_delivered(&packet, hops);
                traffic.deliver(cycle, &packet);
            }
        }
        delivered.clear_all();

        self.cycle += 1;
        debug_assert_eq!(self.audit(), Ok(()));
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
    /// O(1): reads the flag `step` maintains — no event in flight and every
    /// component certified idleness when it last stepped. The flag is
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
    /// reference the incremental flag starts from (at construction) and is
    /// asserted against:
    ///
    /// - no event is in flight (both event buffers are empty — no flit or
    ///   credit awaits delivery);
    /// - every interface is idle (nothing queued, serializing, reassembling
    ///   or awaiting drain);
    /// - every router certifies `is_idle` (the same exact step-is-no-op
    ///   predicates the active-router worklist relies on).
    fn scan_quiescent(&self) -> bool {
        self.next.is_empty()
            && self.now.is_empty()
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
    /// exactly as it would have.
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
    ///
    /// # Panics
    ///
    /// Panics if the measurement window ends past `u64::MAX` cycles
    /// (`noc_campaign::validate` rejects such phases as input).
    pub fn run(&mut self, spec: RunSpec) -> SimReport {
        let start = self.cycle;
        let close = start
            .checked_add(spec.warmup)
            .and_then(|open| open.checked_add(spec.measure))
            .expect("the measurement window ends within the 64-bit cycle counter");
        self.stats = SimStats::new(close - spec.measure, close);
        self.advance(close - start);
        let mut drained_cycles = 0;
        while self.stats.measured_in_flight() > 0 && drained_cycles < spec.drain {
            self.step();
            drained_cycles += 1;
        }
        self.report(spec)
    }

    /// Builds a report from the current statistics. Per-router counters are
    /// merged here in ascending router-index order, and the energy events
    /// derived from them ([`energy_events`]).
    fn report(&self, spec: RunSpec) -> SimReport {
        let router_stats = self
            .routers
            .iter()
            .map(|r| r.stats())
            .fold(crate::RouterStats::default(), |a, b| a + b);
        let buffered: usize = self.routers.iter().map(|r| r.buffered_flits()).sum();
        let energy = energy_events(&router_stats, buffered as u64);
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
                ObservabilityReport::from_routers(
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
                )
            }),
        }
    }
}

/// The Table II energy events of a run (buffer writes and reads, crossbar
/// traversals, arbitrations), derived from its summed router statistics and
/// the flits its routers hold:
///
/// - every crossbar traversal is a flit traversal;
/// - every arbitration is a VA or an SA grant;
/// - every flit traversal reads the buffer, except a pseudo-circuit buffer
///   bypass or an EVC express latch, which never enter it;
/// - every flit written is read or still buffered: writes = reads +
///   `buffered`.
///
/// The last is exact when [`Simulation::run`] reports. `run` ends on a step,
/// and that step steps every router a flit was delivered to; or it ends on a
/// fast-forward, which runs only when the network is quiescent. Either way
/// no router holds a received, unstepped flit, so
/// [`RouterModel::buffered_flits`] counts written flits only. Flits on links
/// have not been written yet.
fn energy_events(stats: &crate::RouterStats, buffered: u64) -> EnergyCounters {
    let buffer_reads = stats.flit_traversals - stats.buffer_bypasses - stats.express_bypasses;
    EnergyCounters {
        buffer_writes: buffer_reads + buffered,
        buffer_reads,
        crossbar_traversals: stats.flit_traversals,
        arbitrations: stats.va_grants + stats.sa_grants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_base::arena::placeholder_flit;
    use noc_topology::Mesh;
    use noc_traffic::{SyntheticPattern, SyntheticTraffic};

    /// A router that holds what it receives for one step, then frees it and
    /// returns its credits: enough to give the audit real holders and real
    /// credit books without depending on a router crate. It never sends, so
    /// its own downstream credits stay at the buffer depth.
    struct Sink {
        pool: Arc<FlitPool>,
        depth: u32,
        held: Vec<(PortIndex, FlitRef)>,
    }

    impl RouterModel for Sink {
        fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
            self.held.push((in_port, flit));
        }
        fn receive_credit(&mut self, _: PortIndex, _: Credit) {}
        fn step(&mut self, _: u64, out: &mut RouterOutputs) {
            for (in_port, flit) in self.held.drain(..) {
                out.credits.push((in_port, self.pool.get(flit).vc));
                self.pool.free(flit);
            }
        }
        fn buffered_flits(&self) -> usize {
            self.held.len()
        }
        fn credits(&self, _: PortIndex, _: u8, _: VcIndex) -> Option<u32> {
            Some(self.depth)
        }
        fn flits_on(&self, in_port: PortIndex, vc: VcIndex) -> Option<usize> {
            let on =
                |&&(p, flit): &&(PortIndex, FlitRef)| p == in_port && self.pool.get(flit).vc == vc;
            Some(self.held.iter().filter(on).count())
        }
        fn stats(&self) -> crate::RouterStats {
            crate::RouterStats::default()
        }
    }

    struct SinkFactory;

    impl RouterFactory for SinkFactory {
        fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
            Box::new(Sink {
                pool: ctx.pool.clone(),
                depth: ctx.config.buffer_depth,
                held: Vec::new(),
            })
        }
    }

    fn sink_sim() -> Simulation {
        let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 2, 2, 2, 0.3, 3);
        Simulation::new(
            Arc::new(Mesh::new(2, 2, 1)),
            NetworkConfig::paper(),
            Box::new(traffic),
            &SinkFactory,
            1,
        )
    }

    #[test]
    fn audit_catches_a_leaked_ref() {
        let mut sim = sink_sim();
        for _ in 0..20 {
            sim.step();
            sim.audit().unwrap();
        }
        assert!(sim.pool.issued() > 0, "the interfaces injected flits");
        // A slot taken from the pool that no router, event vector or
        // interface owns.
        let _leaked = sim.pool.alloc_serial(placeholder_flit());
        let err = sim.audit().unwrap_err();
        assert!(err.contains("flit conservation"), "{err}");
    }

    #[test]
    fn audit_names_a_lost_and_a_duplicated_credit() {
        let mut sim = sink_sim();
        // Run until a credit is on its way back to an interface.
        while sim.next.node_credits.is_empty() {
            assert!(sim.cycle() < 100, "no injection credit came back");
            sim.step();
            sim.audit().unwrap();
        }
        let (node, credit) = sim.next.node_credits.pop().unwrap();
        let err = sim.audit().unwrap_err();
        let (r, p) = sim.wiring.attach_of(node);
        let link = format!("credit law: the link into {r} {p} {}", credit.vc);
        assert!(
            err.contains(&link) && err.contains("a credit was lost"),
            "{err}"
        );
        sim.next.node_credits.push((node, credit));
        sim.audit().unwrap();
        sim.next.node_credits.push((node, credit));
        let err = sim.audit().unwrap_err();
        assert!(
            err.contains(&link) && err.contains("a credit was duplicated"),
            "{err}"
        );
    }
}
