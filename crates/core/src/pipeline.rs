//! The generic speculative two-stage pipeline kernel shared by the crate's
//! three router schemes.
//!
//! # Pipeline (Peh & Dally, HPCA 2001; paper Figs. 2 and 6)
//!
//! | cycle | stage |
//! |-------|-------|
//! | t     | **BW** — arriving flit written into its input-VC buffer |
//! | t + 1 | **VA ∥ SA** — headers get an output VC; switch arbitration runs speculatively in parallel |
//! | t + 2 | **ST** — granted flit traverses the crossbar (lookahead RC folded in) |
//!
//! [`PipelineKernel`] owns everything the paper's schemes have in common:
//! input-VC state, output-port credit books and VC allocation, the separable
//! round-robin VA and SA allocators with their per-port occupancy skip,
//! ST-grant queues preallocated to their structural maximum, and the full
//! stats/energy/metrics/trace plumbing. A scheme plugs in through
//! [`SchemeHooks`]: the pseudo-circuit router ([`crate::router`])
//! implements circuit termination/reuse/bypass/speculation on top of the
//! kernel, the EVC router ([`crate::evc`]) the express latch and the NVC/EVC
//! split, the hybrid router ([`crate::hybrid`]) a hot-flow-gated held
//! circuit — each as a thin hook set rather than a second copy of the
//! pipeline. Kernel and hooks are crate-private: outside the crate a router
//! is a [`KernelRouter`] behind a factory.
//!
//! # One record array per index space (DESIGN.md §15)
//!
//! The kernel keeps one array of records per index space, not one array per
//! field, laid out so that what a step reads together shares a cache line:
//!
//! - **input VC** (`in_port * vcs + vc`): a slot of the [`FifoBank`] — ring
//!   cursor, flit refs and ready cycles, with the per-packet claim
//!   ([`InVc`]) in the slot's tag word; 64 bytes at the paper's depth of 4;
//! - **port**: [`Port`] — input port `p`'s [`InPort`] (SA candidate masks,
//!   occupancy, the input-first arbiter) and output port `p`'s [`OutPort`]
//!   (VA/SA request sets, the output-side arbiters, the grant awaiting ST);
//! - **output VC per drop position** (`(out_port * sub_stride + sub) * vcs +
//!   vc`): [`OutVc`] — the credit counter and, at `sub == 0`, the owner and
//!   cached lookahead of output VC `(out_port, vc)`;
//! - **sub-channel** (`out_port * sub_stride + sub`): [`SubChannel`] — the
//!   credit sum over its VCs and the router at its far end.
//!
//! Every set over one router's ports or VCs is a one-word [`Mask64`]; only
//! the sets that span `in_ports × vcs` are [`WordMask`]s (one inline word up
//! to 64 input VCs). A mask's bit index IS the index of the record it names.
//! The layout is private; scheme hooks go through the accessor methods
//! (`input_route`, `claim_input_vc`, `credits_available`, `claim_out_vc`,
//! …), which also keep the incremental candidate masks coherent. The golden
//! reports under `tests/golden/` pin the behaviour, `tests/zero_alloc.rs`
//! the bytes a router costs.

use crate::probe::RouterCounters;
use noc_base::{BitArbiter, Mask64, WordMask};
use noc_base::{Credit, Flit, FlitPool, FlitRef, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_energy::{EnergyCounters, EnergyEvent};
use noc_sim::blocks::FifoBank;
use noc_sim::{
    MetricsConfig, MetricsLevel, NetworkConfig, PipelineStage, RouterModel, RouterObservation,
    RouterOutputs, RouterStats, SentFlit, TraceEventKind, TraceRing,
};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// Scheme-specific extension points of the pipeline kernel.
///
/// [`PipelineKernel::step`] calls these in a fixed order (the phase letters
/// mirror the pre-kernel routers):
///
/// 1. [`begin_cycle`](Self::begin_cycle) — before any traversal (phase A:
///    pseudo-circuit credit-exhaustion termination);
/// 2. ST drain of last cycle's SA grants (kernel);
/// 3. [`drain_reuse`](Self::drain_reuse) — scheme-driven traversals from the
///    buffers (phase C: pseudo-circuit reuse);
/// 4. arrival acceptance (kernel), each arrival first offered to
///    [`try_arrival_intercept`](Self::try_arrival_intercept) (phase D:
///    buffer bypass / express latch);
/// 5. VC allocation (kernel), candidate classification via
///    [`allocate_out_vc`](Self::allocate_out_vc) (phase E);
/// 6. switch arbitration (kernel), with
///    [`sa_skip`](Self::sa_skip) filtering candidates and
///    [`on_sa_grant`](Self::on_sa_grant) fired per grant (phase F);
/// 7. [`end_cycle`](Self::end_cycle) — after all allocation (phase G:
///    pseudo-circuit speculation).
///
/// The eighth hook, [`is_idle`](Self::is_idle), is not a phase: it is the
/// scheme's half of the predicate that lets the engine skip `step` entirely.
///
/// Hooks receive `&mut PipelineKernel` and use its accessor methods and
/// helpers ([`PipelineKernel::send_flit`],
/// [`PipelineKernel::traverse_from_buffer`], [`PipelineKernel::trace`])
/// freely; the kernel guarantees no internal borrow is held across a hook
/// call. The claim/release accessors refresh the incremental candidate masks
/// themselves, so hooks never touch tracked VC state behind the masks' back.
///
/// One thing a hook must not do: deliver events. `step` walks this cycle's
/// arrivals and last cycle's grants in place and clears both queues after
/// the walk, so [`PipelineKernel::receive_flit`] belongs to the engine's
/// delivery phase, between steps — a flit handed over from inside a hook
/// would be dropped (debug builds assert the queues did not grow).
pub(crate) trait SchemeHooks {
    /// Runs before any traversal of the cycle.
    fn begin_cycle(&mut self, _k: &mut PipelineKernel, _cycle: u64) {}

    /// Runs after the ST drain, before arrivals: scheme-driven buffer
    /// traversals that skip switch arbitration.
    fn drain_reuse(&mut self, _k: &mut PipelineKernel, _cycle: u64, _out: &mut RouterOutputs) {}

    /// Offered each arriving flit before it is buffered. Returning `true`
    /// consumes the flit (it was forwarded through a latch and must not be
    /// written to the buffer). `r` is the flit's pool handle (what a latch
    /// forwards via [`PipelineKernel::send_flit`]); schemes that need the
    /// flit's fields read them through `k.pool().get(r)` — after their cheap
    /// port-state early-outs, so the common non-intercepted arrival never
    /// touches the flit body here.
    fn try_arrival_intercept(
        &mut self,
        _k: &mut PipelineKernel,
        _cycle: u64,
        _in_port: PortIndex,
        _r: FlitRef,
        _out: &mut RouterOutputs,
    ) -> bool {
        false
    }

    /// VC allocation for one header that won the VA arbitration: choose and
    /// claim an output VC on `flit.route.port` for `owner`, or decline.
    /// Returns the VC and the express-hop budget to store in the input VC's
    /// state (0 for non-express schemes).
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)>;

    /// Whether an otherwise-eligible SA candidate must not request the
    /// switch this cycle (pseudo-circuit: flits covered by a live matching
    /// circuit drain through the held connection instead, §III.B).
    fn sa_skip(&self, _in_port: PortIndex, _vc: VcIndex, _route: RouteInfo) -> bool {
        false
    }

    /// Fired for every switch-arbitration grant, after the kernel has
    /// reserved the credit and queued the traversal (pseudo-circuit:
    /// (re)establish the connection's circuit).
    fn on_sa_grant(
        &mut self,
        _k: &mut PipelineKernel,
        _cycle: u64,
        _in_port: PortIndex,
        _vc: VcIndex,
        _route: RouteInfo,
    ) {
    }

    /// Runs after all allocation of the cycle (pseudo-circuit: speculative
    /// restores).
    fn end_cycle(&mut self, _k: &mut PipelineKernel, _cycle: u64) {}

    /// The scheme's clause of the exact step-is-no-op predicate
    /// ([`RouterModel::is_idle`]): `false` whenever `begin_cycle` or
    /// `end_cycle` would change state on an otherwise empty router (a circuit
    /// termination, a speculative restore). Only consulted when
    /// [`PipelineKernel::is_idle_base`] holds, so the flit-driven hooks
    /// cannot fire. Schemes without cycle-driven state keep the default.
    fn is_idle(&self, _k: &PipelineKernel) -> bool {
        true
    }
}

/// The per-packet claim of one input VC — what the mask re-checks read
/// together — packed by [`pack`](Self::pack) into the tag word of the VC's
/// [`FifoBank`] slot (`in_port * vcs + vc`), beside the ring it gates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct InVc {
    /// Route of the packet currently holding the VC (set when its header
    /// traverses or is granted VA; cleared at the tail).
    route: Option<RouteInfo>,
    /// Output VC allocated to the current packet.
    out_vc: Option<VcIndex>,
    /// Express-hop budget the packet's flits carry out of this router (EVC:
    /// `L_MAX - 1` for an express segment, 0 otherwise; decided at VA).
    express: u8,
    /// Whether the VC was claimed by an express stream latching through (no
    /// flits buffered, but the output VC is held). Cleared whenever a flit
    /// is buffered into the VC.
    pass_through: bool,
}

impl InVc {
    /// A VC no packet holds; packs to the zero tag a fresh bank starts with.
    const FREE: Self = Self {
        route: None,
        out_vc: None,
        express: 0,
        pass_through: false,
    };

    const HAS_OUT_VC: u64 = 1 << 32;
    const PASS_THROUGH: u64 = 1 << 48;

    /// Bits 0–15 the route's port, 16–23 its drop distance (at least 1, so 0
    /// says "no route"), 24–31 the output VC, 40–47 the express budget.
    #[inline]
    fn pack(self) -> u64 {
        let route = self.route.map_or(0, |r| {
            debug_assert!(r.hops > 0, "a route drops off after at least one position");
            r.port.index() as u64 | u64::from(r.hops) << 16
        });
        let out_vc = self
            .out_vc
            .map_or(0, |v| (v.index() as u64) << 24 | Self::HAS_OUT_VC);
        let flags = u64::from(self.express) << 40 | u64::from(self.pass_through) << 48;
        route | out_vc | flags
    }

    #[inline]
    fn unpack(tag: u64) -> Self {
        let (port, hops) = (PortIndex::new(tag as u16 as usize), (tag >> 16) as u8);
        let out_vc = VcIndex::new((tag >> 24) as u8 as usize);
        Self {
            route: (hops > 0).then_some(RouteInfo { port, hops }),
            out_vc: (tag & Self::HAS_OUT_VC != 0).then_some(out_vc),
            express: (tag >> 40) as u8,
            pass_through: tag & Self::PASS_THROUGH != 0,
        }
    }
}

/// Everything the kernel keeps per input port.
#[derive(Clone, Debug)]
struct InPort {
    /// Bit `vc`: the VC holds flits, has route + output VC, and is not an
    /// express pass-through claim — it may request SA. Maintained by
    /// `refresh_vc_masks` at every VC state transition (DESIGN.md §14).
    sa_cand: Mask64,
    /// Bit `vc`: the claimed VC's gating credit counter
    /// `(route.port, route.hops-1, out_vc)` is nonzero. Maintained exactly:
    /// `refresh_credit_gate` recomputes it at every claim/release and
    /// `note_credit_gate` propagates every 0↔1 transition of a counter to
    /// its owner's bit, so the SA scan can AND it with `sa_cand` and skip
    /// credit-starved VCs without visiting them — at saturation most
    /// candidates are credit-blocked every cycle, which is exactly when the
    /// scan is longest. Bits of unclaimed VCs are clear (never read: the
    /// AND with `sa_cand` masks them out).
    sa_credit: Mask64,
    /// Buffered flits across all the port's VCs (written where a flit is
    /// buffered or popped).
    occupancy: u32,
    /// Output port of the last header sent from this input (Fig. 1's
    /// crossbar-connection locality).
    last_connection: Option<PortIndex>,
    /// Input-first SA stage: round-robin over the port's VCs.
    arb: BitArbiter,
    /// This cycle's first-stage winner. Meaningful only while the port's bit
    /// sits in some output's SA request set — the output stage reads its
    /// claim through that bit and nowhere else, so it is overwritten, never
    /// reset.
    sa_winner: VcIndex,
}

/// Everything the kernel keeps per output port.
#[derive(Clone, Debug)]
struct OutPort {
    /// This cycle's VA requests over the `in_ports * vcs` flattened input-VC
    /// slots; empty between VA phases.
    va_req: WordMask,
    /// This cycle's second-stage SA requests over input ports, split by
    /// whether the first-stage winner is speculative; empty between SA
    /// phases.
    sa_nonspec: Mask64,
    sa_spec: Mask64,
    /// VA: round-robin over the flattened (input port, VC) space.
    va_arb: BitArbiter,
    /// Output SA stage: round-robin over input ports.
    sa_arb: BitArbiter,
    /// The input VC SA granted this port last cycle, traversing this cycle.
    /// Meaningful only while the port's bit sits in `st_ports`.
    st_grant: (PortIndex, VcIndex),
    /// Drop positions of the port's channel (0 when unconnected): its
    /// sub-channels are `out_port * sub_stride + sub` for `sub < subs`.
    subs: u8,
}

/// Input port `p`'s record and output port `p`'s. The two are unrelated (the
/// port counts need not agree); they share a record to share an allocation.
#[derive(Clone, Debug)]
struct Port {
    input: InPort,
    output: OutPort,
}

/// One output VC at one drop position, at slot `(out_port * sub_stride +
/// sub) * vcs + vc`: the credit counter of `(out_port, sub, vc)` and — at
/// `sub == 0` only, an output VC is allocated per port — who holds output VC
/// `(out_port, vc)`. One record, because VA asks "free, and how many
/// credits" and a returning credit asks "whose gate is this".
#[derive(Copy, Clone, Debug, Default)]
struct OutVc {
    /// Downstream credits of `(out_port, sub, vc)`.
    credits: u32,
    /// The input VC the output VC is allocated to.
    owner: Option<(PortIndex, VcIndex)>,
    /// The lookahead route the last *header* sent through this connection
    /// computed. Body/tail flits reuse it — wormhole ordering means a
    /// packet's header traverses first on its claimed output VC, and
    /// `dst`/`mode`/the connection's route are per-packet constants, so the
    /// cached value is exact for the packet's remaining flits (they'd
    /// recompute the identical `RouteInfo`). Saves the virtual `route` call
    /// and its coordinate arithmetic per non-header traversal.
    lookahead: Option<RouteInfo>,
}

/// One drop position of one output channel, at `out_port * sub_stride + sub`.
#[derive(Copy, Clone, Debug)]
struct SubChannel {
    /// Sum of the sub-channel's per-VC credit counters.
    credit_sum: u32,
    /// The router at the far end: `topo.link`, asked when the first header
    /// leaves by it.
    far_router: Option<RouterId>,
}

/// The shared speculative two-stage pipeline core. See the module docs for
/// the kernel/hooks split and the record layout.
pub(crate) struct PipelineKernel {
    /// This router's id.
    pub(crate) id: RouterId,
    /// The network topology (for lookahead routing and express walks).
    pub(crate) topo: SharedTopology,
    /// Local (injection/ejection) ports per router.
    pub(crate) concentration: usize,
    /// Aggregate router statistics.
    pub(crate) stats: RouterStats,
    /// Energy event counters.
    pub(crate) energy: EnergyCounters,
    /// Per-port observability counters; `None` (one null test per event)
    /// unless built at [`MetricsLevel::Full`] — see [`crate::probe`].
    pub(crate) counters: Option<Box<RouterCounters>>,
    /// Lifecycle tracer; `None` unless this router was selected by a
    /// [`noc_sim::TraceSpec`].
    pub(crate) tracer: Option<Box<TraceRing>>,
    /// Whether `send_flit` counts header crossbar traversals into
    /// [`RouterStats::header_traversals`] (the pseudo-circuit reuse-rate
    /// denominator; schemes without that stat leave it 0).
    count_header_traversals: bool,
    vcs: usize,
    in_ports: usize,
    out_ports: usize,
    // Port-summary masks (DESIGN.md §14): one word per summary, written only
    // by the funnel named on each, so a per-cycle phase visits the ports that
    // have work instead of looping over all of them. They pre-filter only —
    // every visit re-evaluates its predicate — and `check_summaries`
    // recomputes all of them from the state they summarize.
    //
    // Input / output ports whose crossbar connection is taken this cycle:
    // cleared at the top of `step`, set by `mark_connection`.
    in_busy: Mask64,
    out_busy: Mask64,
    // Input ports whose `occupancy` is nonzero.
    occupied_ports: Mask64,
    // Input ports with a bit in `sa_cand & sa_credit`: the only ports the SA
    // gather stage visits. Written by `refresh_sa_port`, which every write
    // to either per-port mask is followed by.
    sa_ports: Mask64,
    // Output ports where some sub-channel's credit sum is zero (a superset
    // of the ports a held circuit is out of credit on). Kept by
    // `consume_credit` / `receive_credit`.
    creditless_ports: Mask64,
    // Output ports holding last cycle's SA grant (`OutPort::st_grant`): set
    // by the SA output stage, taken by the next step's ST drain.
    st_ports: Mask64,
    // The shared flit slab; buffers and emissions move `FlitRef`s, flit
    // bodies are read/written in place through the pool.
    pool: Arc<FlitPool>,
    // One record array per index space (module docs, DESIGN.md §15). A mask
    // bit index IS the index of the record it stands for: bit `in_port * vcs
    // + vc` of `va_cand`, `va_now` and every `va_req` names slot `in_port * vcs
    // + vc` of `bank`; bit `vc` of `ports[p].input.sa_cand` names slot `p * vcs
    // + vc`; a bit of a port summary names `ports[p].input` or `.output`.
    //
    // Every input VC: its flit ring, and its claim (`InVc`) in the tag.
    bank: FifoBank,
    ports: Box<[Port]>,
    out_vcs: Box<[OutVc]>,
    sub_channels: Box<[SubChannel]>,
    // Sub-channel records per output port: the widest channel's drop count
    // (1 on point-to-point topologies); narrower ports leave theirs unused.
    sub_stride: usize,
    credit_capacity: u32,
    // This cycle's arrivals; `step` walks them in place and clears them
    // (see the `SchemeHooks` contract).
    arrivals: Vec<(PortIndex, FlitRef)>,
    // Bit `in_port * vcs + vc`: the VC holds flits and no route/output VC —
    // it may request VA once its head is ready. Maintained by
    // `refresh_vc_masks` at every VC state transition, NOT rebuilt per
    // cycle; a stale bit is a correctness bug (a candidate the allocator
    // never sees), which is why all writes to the tracked fields funnel
    // through the kernel helpers and claim/release accessors.
    va_cand: WordMask,
    // Bit `in_port * vcs + vc`: this cycle's VA phase granted the VC, which
    // makes its SA request of the same cycle speculative. Rewritten by every
    // VA phase and read only by the SA phase after it.
    va_now: WordMask,
}

impl PipelineKernel {
    /// Builds the kernel for one router. `count_header_traversals` selects
    /// whether header crossbar traversals feed
    /// [`RouterStats::header_traversals`]. `pool` is the network-wide flit
    /// slab the router's buffers reference into.
    pub(crate) fn new(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        count_header_traversals: bool,
        pool: Arc<FlitPool>,
    ) -> Self {
        let in_ports = topo.in_ports(id);
        let out_ports = topo.out_ports(id);
        let vcs = config.vcs_per_port as usize;
        for (count, what) in [
            (in_ports, "input ports"),
            (out_ports, "output ports"),
            (vcs, "VCs"),
        ] {
            assert!(
                count <= Mask64::WIDTH,
                "{id} has {count} {what}; the one-word port masks hold at most {}",
                Mask64::WIDTH
            );
        }
        let slots = in_ports * vcs;
        let sub_credits = config
            .buffer_depth
            .checked_mul(vcs as u32)
            .expect("a sub-channel's credits fit u32 (noc_campaign::validate bounds the product)");
        let input = InPort {
            sa_cand: Mask64::EMPTY,
            sa_credit: Mask64::EMPTY,
            occupancy: 0,
            last_connection: None,
            arb: BitArbiter::new(vcs),
            sa_winner: VcIndex::new(0),
        };
        let ports: Box<[Port]> = (0..in_ports.max(out_ports))
            .map(|p| {
                // A port index past the output ports is an unconnected one.
                let subs = if p < out_ports {
                    topo.channel_len(id, PortIndex::new(p))
                } else {
                    0
                };
                Port {
                    input: input.clone(),
                    output: OutPort {
                        va_req: WordMask::new(slots),
                        sa_nonspec: Mask64::EMPTY,
                        sa_spec: Mask64::EMPTY,
                        va_arb: BitArbiter::new(slots),
                        sa_arb: BitArbiter::new(in_ports),
                        st_grant: (PortIndex::new(0), VcIndex::new(0)),
                        subs,
                    },
                }
            })
            .collect();
        let sub_stride = ports
            .iter()
            .map(|p| usize::from(p.output.subs))
            .max()
            .unwrap_or(0);
        let out_vc = OutVc {
            credits: config.buffer_depth,
            ..OutVc::default()
        };
        let sub_channel = SubChannel {
            credit_sum: sub_credits,
            far_router: None,
        };
        Self {
            id,
            concentration: topo.concentration(),
            topo,
            stats: RouterStats::default(),
            energy: EnergyCounters::default(),
            counters: None,
            tracer: None,
            count_header_traversals,
            vcs,
            in_ports,
            out_ports,
            in_busy: Mask64::EMPTY,
            out_busy: Mask64::EMPTY,
            occupied_ports: Mask64::EMPTY,
            sa_ports: Mask64::EMPTY,
            // `FifoBank::new` below refuses a zero depth, so every connected
            // sub-channel starts with credit.
            creditless_ports: Mask64::EMPTY,
            st_ports: Mask64::EMPTY,
            pool,
            bank: FifoBank::new(slots, config.buffer_depth as usize),
            ports,
            out_vcs: vec![out_vc; out_ports * sub_stride * vcs].into(),
            sub_channels: vec![sub_channel; out_ports * sub_stride].into(),
            sub_stride,
            credit_capacity: config.buffer_depth,
            // Reserved to its structural maximum (one flit per input port
            // per cycle) so steady-state stepping never allocates
            // (tests/zero_alloc.rs).
            arrivals: Vec::with_capacity(in_ports),
            va_cand: WordMask::new(slots),
            va_now: WordMask::new(slots),
        }
    }

    /// The flat slot of input VC `(in_port, vc)`: `in_port * vcs + vc`, the
    /// same index the VA candidate mask uses for its bits.
    #[inline]
    fn slot(&self, in_port: PortIndex, vc: VcIndex) -> usize {
        debug_assert!(in_port.index() < self.in_ports && vc.index() < self.vcs);
        in_port.index() * self.vcs + vc.index()
    }

    /// The record of `in_port`, for writing.
    #[inline]
    fn input_mut(&mut self, in_port: PortIndex) -> &mut InPort {
        &mut self.ports[in_port.index()].input
    }

    /// The claim of the input VC at `slot`, unpacked from its bank tag.
    #[inline]
    fn in_vc(&self, slot: usize) -> InVc {
        InVc::unpack(self.bank.tag(slot))
    }

    /// Stores the claim of the input VC at `slot`. Callers refresh the
    /// candidate masks.
    #[inline]
    fn set_in_vc(&mut self, slot: usize, state: InVc) {
        self.bank.set_tag(slot, state.pack());
    }

    /// The index in `sub_channels` of drop position `sub` of `out_port`.
    #[inline]
    fn sub_slot(&self, out_port: PortIndex, sub: usize) -> usize {
        debug_assert!(
            sub < usize::from(self.ports[out_port.index()].output.subs),
            "sub-channel {sub} out of range on {out_port}"
        );
        out_port.index() * self.sub_stride + sub
    }

    /// The index in `out_vcs` of the `(out_port, sub, vc)` record: its credit
    /// counter, and at `sub == 0` the allocation state of output VC
    /// `(out_port, vc)`.
    #[inline]
    fn out_slot(&self, out_port: PortIndex, sub: usize, vc: VcIndex) -> usize {
        debug_assert!(out_port.index() < self.out_ports && vc.index() < self.vcs);
        debug_assert!(sub < self.sub_stride);
        (out_port.index() * self.sub_stride + sub) * self.vcs + vc.index()
    }

    /// Re-derives the VA/SA candidate-mask bits of one input VC from its
    /// current state (DESIGN.md §14). The kernel calls this after every state
    /// transition it owns (buffer push, buffer pop, VA grant, tail release);
    /// the claim/release accessors scheme hooks mutate VC state through call
    /// it internally — a missed refresh silently hides the VC from the
    /// allocators, which is a correctness bug, not a performance bug.
    #[inline]
    fn refresh_vc_masks(&mut self, in_port: PortIndex, vc: VcIndex) {
        let slot = self.slot(in_port, vc);
        let has_flits = !self.bank.is_empty(slot);
        let state = self.in_vc(slot);
        let claimed = state.route.is_some() && state.out_vc.is_some();
        let unclaimed = state.route.is_none() && state.out_vc.is_none();
        let sa_cand = has_flits && claimed && !state.pass_through;
        self.va_cand.assign(slot, has_flits && unclaimed);
        self.input_mut(in_port).sa_cand.assign(vc.index(), sa_cand);
        self.refresh_sa_port(in_port);
    }

    /// Re-derives `in_port`'s bit of [`sa_ports`](Self::sa_ports); follows
    /// every write to the port's `sa_cand` or `sa_credit` mask.
    #[inline]
    fn refresh_sa_port(&mut self, in_port: PortIndex) {
        let port = &self.ports[in_port.index()].input;
        let requests = (port.sa_cand & port.sa_credit).any();
        self.sa_ports.assign(in_port.index(), requests);
    }

    /// Writes bit `vc` of `in_port`'s `sa_credit` mask.
    #[inline]
    fn set_credit_gate(&mut self, in_port: PortIndex, vc: VcIndex, credit_ok: bool) {
        self.input_mut(in_port)
            .sa_credit
            .assign(vc.index(), credit_ok);
        self.refresh_sa_port(in_port);
    }

    /// Recomputes the `sa_credit` bit of `(in_port, vc)` from its claim's
    /// gating counter. Called at every claim/release of the VC's route +
    /// output VC — NOT at buffer push/pop, which cannot change the gating
    /// counter; 0↔1 counter transitions between claims are propagated by
    /// [`note_credit_gate`](Self::note_credit_gate).
    #[inline]
    fn refresh_credit_gate(&mut self, in_port: PortIndex, vc: VcIndex) {
        let state = self.in_vc(self.slot(in_port, vc));
        let credit_ok = match (state.route, state.out_vc) {
            (Some(route), Some(out_vc)) => {
                self.credits_available(route.port, route.hops as usize - 1, out_vc) > 0
            }
            _ => false,
        };
        self.set_credit_gate(in_port, vc, credit_ok);
    }

    /// The shared flit slab this router references into.
    #[inline]
    pub(crate) fn pool(&self) -> &Arc<FlitPool> {
        &self.pool
    }

    /// Route held by input VC `(in_port, vc)`, if any.
    #[inline]
    pub(crate) fn input_route(&self, in_port: PortIndex, vc: VcIndex) -> Option<RouteInfo> {
        self.in_vc(self.slot(in_port, vc)).route
    }

    /// Output VC held by input VC `(in_port, vc)`, if any.
    #[inline]
    pub(crate) fn input_out_vc(&self, in_port: PortIndex, vc: VcIndex) -> Option<VcIndex> {
        self.in_vc(self.slot(in_port, vc)).out_vc
    }

    /// Whether `(in_port, vc)` is held by an express pass-through claim.
    #[inline]
    pub(crate) fn input_pass_through(&self, in_port: PortIndex, vc: VcIndex) -> bool {
        self.in_vc(self.slot(in_port, vc)).pass_through
    }

    /// Whether the buffer of `(in_port, vc)` is empty.
    #[inline]
    pub(crate) fn input_empty(&self, in_port: PortIndex, vc: VcIndex) -> bool {
        self.bank.is_empty(self.slot(in_port, vc))
    }

    /// The head flit of `(in_port, vc)` if it is ready at `cycle`, read in
    /// place from the pool.
    #[inline]
    pub(crate) fn input_head_ready(
        &self,
        in_port: PortIndex,
        vc: VcIndex,
        cycle: u64,
    ) -> Option<&Flit> {
        self.bank
            .head_ready(self.slot(in_port, vc), cycle)
            .map(|r| self.pool.get(r))
    }

    /// Claims input VC `(in_port, vc)` for a packet: stores its route and
    /// output VC and refreshes the candidate masks. Used by scheme paths
    /// that grant VA outside the kernel's VA phase (pseudo-circuit reuse and
    /// bypass); the VA-grant cycle stays unset, marking later SA requests
    /// non-speculative.
    pub(crate) fn claim_input_vc(
        &mut self,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
        out_vc: VcIndex,
    ) {
        let slot = self.slot(in_port, vc);
        let state = InVc {
            route: Some(route),
            out_vc: Some(out_vc),
            ..self.in_vc(slot)
        };
        self.set_in_vc(slot, state);
        self.refresh_vc_masks(in_port, vc);
        self.refresh_credit_gate(in_port, vc);
    }

    /// Claims input VC `(in_port, vc)` for an express stream latching
    /// through (EVC): like [`claim_input_vc`](Self::claim_input_vc) but
    /// marks the claim pass-through, which keeps the VC out of the SA
    /// candidate mask until a flit actually buffers.
    pub(crate) fn claim_pass_through(
        &mut self,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
        out_vc: VcIndex,
    ) {
        let slot = self.slot(in_port, vc);
        self.bank
            .set_tag(slot, self.bank.tag(slot) | InVc::PASS_THROUGH);
        self.claim_input_vc(in_port, vc, route, out_vc);
    }

    /// Releases every per-packet claim of input VC `(in_port, vc)` (route,
    /// output VC, express budget, pass-through) and refreshes the
    /// candidate masks. The tail-flit counterpart of the claim accessors;
    /// the output-VC allocation itself is released separately via
    /// [`release_out_vc`](Self::release_out_vc).
    pub(crate) fn release_input_vc(&mut self, in_port: PortIndex, vc: VcIndex) {
        let slot = self.slot(in_port, vc);
        self.free_in_vc(slot);
        // `refresh_vc_masks` re-derives the port's `sa_ports` bit.
        self.input_mut(in_port).sa_credit.clear(vc.index());
        self.refresh_vc_masks(in_port, vc);
    }

    /// Frees the claim at `slot`, and the VA-grant cycle kept beside the
    /// `--metrics full` counters with it.
    #[inline]
    fn free_in_vc(&mut self, slot: usize) {
        self.set_in_vc(slot, InVc::FREE);
        if let Some(p) = self.counters.as_deref_mut() {
            p.va_granted_at[slot] = u64::MAX;
        }
    }

    /// Whether output VC `(out_port, vc)` is unallocated.
    #[inline]
    pub(crate) fn out_vc_is_free(&self, out_port: PortIndex, vc: VcIndex) -> bool {
        self.out_vcs[self.out_slot(out_port, 0, vc)].owner.is_none()
    }

    /// Allocates output VC `(out_port, vc)` to `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already allocated.
    pub(crate) fn claim_out_vc(
        &mut self,
        out_port: PortIndex,
        vc: VcIndex,
        owner: (PortIndex, VcIndex),
    ) {
        let slot = self.out_slot(out_port, 0, vc);
        assert!(
            self.out_vcs[slot].owner.is_none(),
            "output VC {vc} on {out_port} already allocated"
        );
        self.out_vcs[slot].owner = Some(owner);
    }

    /// Frees output VC `(out_port, vc)` (idempotent).
    pub(crate) fn release_out_vc(&mut self, out_port: PortIndex, vc: VcIndex) {
        let slot = self.out_slot(out_port, 0, vc);
        self.out_vcs[slot].owner = None;
    }

    /// Downstream credits of `(out_port, sub, vc)`.
    #[inline]
    pub(crate) fn credits_available(&self, out_port: PortIndex, sub: usize, vc: VcIndex) -> u32 {
        self.out_vcs[self.out_slot(out_port, sub, vc)].credits
    }

    /// Total downstream credits across all VCs of `(out_port, sub)`.
    #[inline]
    pub(crate) fn credits_at_sub(&self, out_port: PortIndex, sub: usize) -> u32 {
        self.sub_channels[self.sub_slot(out_port, sub)].credit_sum
    }

    /// Output ports on which some sub-channel has no downstream credit on
    /// any VC — a superset of the ports whose held circuit must terminate
    /// (the circuit's own drop position decides, via
    /// [`credits_at_sub`](Self::credits_at_sub)).
    #[inline]
    pub(crate) fn creditless_ports(&self) -> Mask64 {
        self.creditless_ports
    }

    /// Input ports with at least one buffered flit.
    #[inline]
    pub(crate) fn occupied_ports(&self) -> Mask64 {
        self.occupied_ports
    }

    /// Whether `in_port`'s crossbar connection is taken this cycle.
    #[inline]
    pub(crate) fn in_busy(&self, in_port: PortIndex) -> bool {
        self.in_busy.get(in_port.index())
    }

    /// Whether `out_port`'s crossbar connection is taken this cycle.
    #[inline]
    pub(crate) fn out_busy(&self, out_port: PortIndex) -> bool {
        self.out_busy.get(out_port.index())
    }

    /// Takes the `in_port → out_port` crossbar connection for this cycle.
    #[inline]
    fn mark_connection(&mut self, in_port: PortIndex, out_port: PortIndex) {
        self.in_busy.set(in_port.index());
        self.out_busy.set(out_port.index());
    }

    /// Reserves one downstream credit of `(out_port, sub, vc)`.
    ///
    /// # Panics
    ///
    /// Panics on credit underflow (a flow-control bug).
    pub(crate) fn consume_credit(&mut self, out_port: PortIndex, sub: usize, vc: VcIndex) {
        let counter = &mut self.out_vcs[self.out_slot(out_port, sub, vc)].credits;
        assert!(
            *counter > 0,
            "credit underflow at {out_port} sub {sub} {vc}"
        );
        *counter -= 1;
        if *counter == 0 {
            self.note_credit_gate(out_port, sub, vc, false);
        }
        let sum = &mut self.sub_channels[self.sub_slot(out_port, sub)].credit_sum;
        *sum -= 1;
        if *sum == 0 {
            self.creditless_ports.set(out_port.index());
        }
    }

    /// Propagates a 0↔1 transition of the `(out_port, sub, vc)` credit
    /// counter into the owning input VC's `sa_credit` bit — but only when
    /// that counter is the owner's gating counter (the owner's route decides
    /// which sub-channel its flits traverse, so a transition on another sub
    /// leaves the owner's bit untouched).
    #[inline]
    fn note_credit_gate(&mut self, out_port: PortIndex, sub: usize, vc: VcIndex, avail: bool) {
        let Some((ip, ivc)) = self.out_vcs[self.out_slot(out_port, 0, vc)].owner else {
            return;
        };
        let state = self.in_vc(self.slot(ip, ivc));
        let (Some(route), Some(out_vc)) = (state.route, state.out_vc) else {
            return; // output VC claimed, input-side claim not stored yet
        };
        if route.port == out_port && out_vc == vc && route.hops as usize - 1 == sub {
            self.set_credit_gate(ip, ivc, avail);
        }
    }

    /// Enables observability per `metrics`: per-port counters at
    /// [`MetricsLevel::Full`], and a lifecycle trace ring when this router is
    /// selected by the trace spec. Call before the first `step`.
    pub(crate) fn enable_metrics(&mut self, metrics: &MetricsConfig) {
        if metrics.level == MetricsLevel::Full {
            let mut counters = RouterCounters::new(self.id.index(), self.in_ports, self.out_ports);
            counters.va_granted_at = vec![u64::MAX; self.in_ports * self.vcs];
            self.counters = Some(Box::new(counters));
        }
        if let Some(spec) = &metrics.trace {
            if spec.selects(self.id.index()) {
                self.tracer = Some(Box::new(TraceRing::new(self.id.index(), spec.capacity)));
            }
        }
    }

    /// Records a lifecycle event when tracing is enabled.
    pub(crate) fn trace(
        &mut self,
        cycle: u64,
        kind: TraceEventKind,
        in_port: PortIndex,
        out_port: PortIndex,
    ) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(cycle, kind, in_port.index(), out_port.index());
        }
    }

    /// Exports the observability counters, if enabled.
    pub(crate) fn observation(&self) -> Option<RouterObservation> {
        self.counters.as_ref().map(|c| c.export())
    }

    /// The lifecycle tracer, if enabled.
    pub(crate) fn trace_ring(&self) -> Option<&TraceRing> {
        self.tracer.as_deref()
    }

    /// Queues an arriving flit for the next `step`'s arrival phase. The
    /// router takes ownership of the pool slot behind `flit`. Called between
    /// steps, never from a scheme hook (see [`SchemeHooks`]).
    pub(crate) fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        debug_assert!(in_port.index() < self.in_ports, "bad input port");
        self.arrivals.push((in_port, flit));
    }

    /// Returns a downstream credit to its (sub, VC) counter.
    pub(crate) fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        let sub = credit.sub as usize;
        let capacity = self.credit_capacity;
        let counter = &mut self.out_vcs[self.out_slot(out_port, sub, credit.vc)].credits;
        assert!(
            *counter < capacity,
            "credit overflow at {out_port} sub {} {}",
            credit.sub,
            credit.vc
        );
        *counter += 1;
        if *counter == 1 {
            self.note_credit_gate(out_port, sub, credit.vc, true);
        }
        let sum = &mut self.sub_channels[self.sub_slot(out_port, sub)].credit_sum;
        *sum += 1;
        if *sum == 1 {
            // The port leaves the mask only when no other sub-channel of it
            // is still at zero.
            let subs = usize::from(self.ports[out_port.index()].output.subs);
            let creditless = self.sub_channels[out_port.index() * self.sub_stride..][..subs]
                .iter()
                .any(|sub| sub.credit_sum == 0);
            self.creditless_ports.assign(out_port.index(), creditless);
        }
        debug_assert_eq!(self.check_summaries(), Ok(()));
    }

    /// The kernel part of the step-is-no-op predicate: nothing staged or
    /// buffered, so every kernel phase falls through without touching
    /// observable state (pass-through VC claims are inert until a flit
    /// arrives, and arbiters do not move on empty request masks). Schemes
    /// with cycle-driven state of their own add their clause through
    /// [`SchemeHooks::is_idle`]; [`KernelRouter`] ANDs the two.
    pub(crate) fn is_idle_base(&self) -> bool {
        self.arrivals.is_empty() && !self.st_ports.any() && !self.occupied_ports.any()
    }

    /// Flits this router owns between steps: the arrivals not yet stepped,
    /// and every flit in the input-VC bank, counted from the rings rather
    /// than from the occupancy summaries.
    pub(crate) fn buffered_flits(&self) -> usize {
        let slots = self.in_ports * self.vcs;
        self.arrivals.len() + (0..slots).map(|s| self.bank.len(s)).sum::<usize>()
    }

    /// Recomputes every port summary — the candidate masks, the per-port
    /// occupancy and its mask, `sa_ports`, the per-sub-channel credit sums
    /// and `creditless_ports` — from the state it summarizes, and names the
    /// first one that disagrees; also that no per-cycle request set outlived
    /// its phase. A stale summary hides work from a phase that pre-filters
    /// on it, so `step` and `receive_credit` assert this in debug builds;
    /// allocation-free unless it fails.
    pub(crate) fn check_summaries(&self) -> Result<(), String> {
        let id = self.id;
        for p in 0..self.in_ports {
            let port = &self.ports[p].input;
            let mut buffered = 0;
            let mut sa_cand = Mask64::EMPTY;
            let mut sa_credit = Mask64::EMPTY;
            for vc in 0..self.vcs {
                let slot = p * self.vcs + vc;
                let state = self.in_vc(slot);
                let has_flits = !self.bank.is_empty(slot);
                let (routed, has_out_vc) = (state.route.is_some(), state.out_vc.is_some());
                buffered += self.bank.len(slot);
                sa_cand.assign(vc, has_flits && routed && has_out_vc && !state.pass_through);
                if let (Some(route), Some(out_vc)) = (state.route, state.out_vc) {
                    let gate = self.credits_available(route.port, route.hops as usize - 1, out_vc);
                    sa_credit.assign(vc, gate > 0);
                }
                if self.va_cand.get(slot) != (has_flits && !routed && !has_out_vc) {
                    return Err(format!("{id}: stale va_cand bit of input {p} VC {vc}"));
                }
            }
            if port.sa_cand != sa_cand {
                return Err(format!("{id}: stale sa_cand mask of input {p}"));
            }
            // `sa_credit` is exact on the claimed VCs; the others' bits are
            // never read.
            if port.sa_cand & port.sa_credit != sa_cand & sa_credit {
                return Err(format!("{id}: stale sa_credit mask of input {p}"));
            }
            if port.occupancy as usize != buffered {
                return Err(format!(
                    "{id}: input {p} buffers {buffered} flits, not {}",
                    port.occupancy
                ));
            }
            if self.occupied_ports.get(p) != (buffered > 0) {
                return Err(format!("{id}: stale occupied_ports bit of input {p}"));
            }
            if self.sa_ports.get(p) != (sa_cand & sa_credit).any() {
                return Err(format!("{id}: stale sa_ports bit of input {p}"));
            }
        }
        for p in 0..self.out_ports {
            let port = &self.ports[p].output;
            let mut creditless = false;
            for sub in 0..usize::from(port.subs) {
                let channel = p * self.sub_stride + sub;
                let sum: u32 = self.out_vcs[channel * self.vcs..][..self.vcs]
                    .iter()
                    .map(|vc| vc.credits)
                    .sum();
                if self.sub_channels[channel].credit_sum != sum {
                    return Err(format!("{id}: stale credit sum on output {p}"));
                }
                creditless |= sum == 0;
            }
            if self.creditless_ports.get(p) != creditless {
                return Err(format!("{id}: stale creditless_ports bit of output {p}"));
            }
            if port.va_req.any() || port.sa_nonspec.any() || port.sa_spec.any() {
                return Err(format!("{id}: output {p} kept a request past its phase"));
            }
            if self.st_ports.get(p) {
                let (in_port, vc) = port.st_grant;
                let slot = self.slot(in_port, vc);
                let routed_here = self.in_vc(slot).route.map(|r| r.port.index()) == Some(p);
                if self.bank.is_empty(slot) || !routed_here {
                    return Err(format!(
                        "{id}: output {p} holds an SA grant for a VC with no flit routed to it"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Sends a flit out of the crossbar: records locality, fills in the
    /// downstream VC, the express-hop budget and the lookahead route (all
    /// written in place through the pool), and queues the emission.
    pub(crate) fn send_flit(
        &mut self,
        r: FlitRef,
        in_port: PortIndex,
        route: RouteInfo,
        out_vc: VcIndex,
        express_hops: u8,
        out: &mut RouterOutputs,
    ) {
        let (is_head, dst, mode) = {
            let f = self.pool.get(r);
            (f.kind.is_head(), f.dst, f.mode)
        };
        if is_head {
            // Packet-granularity crossbar-connection locality (Fig. 1):
            // body/tail flits trivially follow their header, so only
            // consecutive packets are compared.
            let last = &mut self.ports[in_port.index()].input.last_connection;
            if let Some(prev) = *last {
                self.stats.xbar_locality_total += 1;
                if prev == route.port {
                    self.stats.xbar_locality_hits += 1;
                }
            }
            *last = Some(route.port);
            if self.count_header_traversals {
                self.stats.header_traversals += 1;
            }
        }
        self.stats.flit_traversals += 1;
        self.energy.record(EnergyEvent::CrossbarTraversal);
        if let Some(p) = self.counters.as_deref_mut() {
            p.on_traversal(in_port);
        }
        self.mark_connection(in_port, route.port);

        let lookahead = (route.port.index() >= self.concentration).then(|| {
            let slot = self.out_slot(route.port, 0, out_vc);
            if is_head {
                let channel = self.sub_slot(route.port, route.hops as usize - 1);
                let far = &mut self.sub_channels[channel].far_router;
                let next = *far.get_or_insert_with(|| {
                    let end = self.topo.link(self.id, route.port, route.hops);
                    end.expect("a header leaves by a connected channel").router
                });
                let la = self.topo.route(next, dst, mode);
                self.out_vcs[slot].lookahead = Some(la);
                la
            } else {
                // Wormhole ordering: this body/tail flit's header traversed
                // this connection first and cached the packet's lookahead.
                self.out_vcs[slot]
                    .lookahead
                    .expect("body flit before its header")
            }
        });
        self.pool.update(r, |f| {
            f.vc = out_vc;
            f.express_hops = express_hops;
            if let Some(la) = lookahead {
                f.route = la;
            }
        });
        out.flits.push(SentFlit {
            out_port: route.port,
            hops: route.hops,
            flit: r,
        });
    }

    /// Pops the head flit of `(in_port, vc)` and sends it through the held
    /// route of that VC. `reuse` marks a pseudo-circuit traversal (skipped
    /// SA); credits were pre-reserved for granted traversals and are consumed
    /// here for reuse traversals.
    pub(crate) fn traverse_from_buffer(
        &mut self,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        reuse: bool,
        out: &mut RouterOutputs,
    ) {
        let slot = self.slot(in_port, vc);
        let (r, ready_at) = self.bank.pop(slot).expect("granted VC has a flit");
        debug_assert!(ready_at <= cycle, "flit traversed before ready");
        let kind = self.pool.get(r).kind;
        let state = self.in_vc(slot);
        if kind.is_head() {
            debug_assert!(state.route.is_some(), "header traversing without a route");
        }
        let route = state.route.expect("active VC has a route");
        let out_vc = state.out_vc.expect("active VC has an output VC");
        // When the VA phase granted this packet (`u64::MAX`: a reuse-path
        // claim); kept, and read, only at `--metrics full`.
        let va_cycle = self
            .counters
            .as_deref()
            .map_or(u64::MAX, |p| p.va_granted_at[slot]);
        if kind.is_tail() {
            // A buffered flit cleared any pass-through mark on its way in.
            debug_assert!(!state.pass_through);
            self.free_in_vc(slot);
            self.release_out_vc(route.port, out_vc);
            // `refresh_vc_masks` below re-derives the port's `sa_ports` bit.
            self.input_mut(in_port).sa_credit.clear(vc.index());
        }
        self.refresh_vc_masks(in_port, vc);
        if reuse {
            self.consume_credit(route.port, route.hops as usize - 1, out_vc);
            self.stats.pc_reuses += 1;
            if kind.is_head() {
                self.stats.pc_header_reuses += 1;
            }
        }
        let occupancy = &mut self.input_mut(in_port).occupancy;
        *occupancy -= 1;
        if *occupancy == 0 {
            self.occupied_ports.clear(in_port.index());
        }
        self.energy.record(EnergyEvent::BufferRead);
        if let Some(p) = self.counters.as_deref_mut() {
            // The flit was written into the buffer the cycle before it
            // became ready (`FifoBank::push(slot, r, cycle + 1)`).
            let arrival = ready_at - 1;
            // Inclusive per-hop router delay: 3 baseline / 2 reuse under no
            // contention (paper Fig. 6), more under contention.
            p.on_stage(PipelineStage::St, cycle - arrival + 1);
            p.on_stage(PipelineStage::Bw, cycle - arrival);
            if kind.is_head() {
                // Reuse-path headers get VA the traversal cycle itself;
                // baseline-path headers were granted at `va_cycle`.
                let va_at = if va_cycle == u64::MAX {
                    cycle
                } else {
                    va_cycle
                };
                p.on_stage(PipelineStage::Va, va_at - arrival);
            }
            if reuse {
                p.on_pc_hit(in_port, false);
            } else {
                // SA granted this traversal one cycle ago. Headers wait from
                // their VA grant (0 = same-cycle speculative SA), body flits
                // from buffer write.
                let grant = cycle - 1;
                let sa_from = if kind.is_head() && va_cycle != u64::MAX {
                    va_cycle
                } else {
                    arrival
                };
                p.on_stage(PipelineStage::Sa, grant.saturating_sub(sa_from));
            }
        }
        if reuse {
            self.trace(cycle, TraceEventKind::Hit, in_port, route.port);
        }
        out.credits.push((in_port, vc));
        self.send_flit(r, in_port, route, out_vc, state.express, out);
    }

    /// Runs one cycle of the shared pipeline, dispatching to `hooks` at each
    /// scheme extension point (see [`SchemeHooks`] for the phase order).
    pub(crate) fn step<H: SchemeHooks>(
        &mut self,
        hooks: &mut H,
        cycle: u64,
        out: &mut RouterOutputs,
    ) {
        self.in_busy = Mask64::EMPTY;
        self.out_busy = Mask64::EMPTY;

        hooks.begin_cycle(self, cycle);

        // Switch traversal of last cycle's grants (SA has priority over any
        // scheme reuse path: its resources were reserved at grant time), in
        // the ascending output-port order they were decided in. New grants
        // are recorded only by this cycle's SA phase, after the take.
        for out_port in std::mem::take(&mut self.st_ports) {
            let (in_port, vc) = self.ports[out_port].output.st_grant;
            self.traverse_from_buffer(cycle, in_port, vc, false, out);
        }

        hooks.drain_reuse(self, cycle, out);
        self.accept_arrivals(hooks, cycle, out);
        self.allocate_vcs(hooks, cycle);
        self.arbitrate_switch(hooks, cycle);
        hooks.end_cycle(self, cycle);
        debug_assert_eq!(self.check_summaries(), Ok(()));
    }

    /// Arrival phase: each flit is offered to the scheme's intercept hook
    /// (bypass latch, express latch) and otherwise written into its VC
    /// buffer, becoming ready next cycle (the BW stage).
    fn accept_arrivals<H: SchemeHooks>(
        &mut self,
        hooks: &mut H,
        cycle: u64,
        out: &mut RouterOutputs,
    ) {
        // Walked by index so `self` stays free for the intercept/buffer
        // calls; the engine delivers only between steps.
        let arrivals = self.arrivals.len();
        for i in 0..arrivals {
            let (in_port, r) = self.arrivals[i];
            if hooks.try_arrival_intercept(self, cycle, in_port, r, out) {
                continue;
            }
            self.energy.record(EnergyEvent::BufferWrite);
            self.input_mut(in_port).occupancy += 1;
            self.occupied_ports.set(in_port.index());
            let vc = self.pool.get(r).vc;
            let slot = self.slot(in_port, vc);
            // An express stream that stalls into the buffer continues
            // hop-by-hop; its pass-through claim becomes an ordinary
            // buffered packet claim.
            self.bank
                .set_tag(slot, self.bank.tag(slot) & !InVc::PASS_THROUGH);
            self.bank
                .push(slot, r, cycle + 1)
                .expect("upstream credits bound buffer occupancy");
            self.refresh_vc_masks(in_port, vc);
        }
        debug_assert_eq!(self.arrivals.len(), arrivals);
        self.arrivals.clear();
    }

    /// VC allocation for ready headers (separable, per output VC,
    /// round-robin across requesters); the winning header's VC choice is
    /// delegated to [`SchemeHooks::allocate_out_vc`].
    fn allocate_vcs<H: SchemeHooks>(&mut self, hooks: &mut H, cycle: u64) {
        let vcs = self.vcs;
        self.va_now.clear_all();
        // Gather requests grouped by output port. Only the set bits of the
        // incremental candidate mask are visited; the per-cycle conditions
        // (ready head, header kind) are the only ones re-checked here —
        // the stable part of the predicate (buffered flits, no route, no
        // output VC) is the mask invariant itself. The mask's bit index IS
        // the record slot.
        let mut pending = Mask64::EMPTY;
        for slot in &self.va_cand {
            debug_assert!(
                !self.bank.is_empty(slot) && self.in_vc(slot) == InVc::FREE,
                "stale VA candidate bit (missed refresh_vc_masks)"
            );
            let Some(r) = self.bank.head_ready(slot, cycle) else {
                continue;
            };
            let head = self.pool.get(r);
            if head.kind.is_head() {
                let out_port = head.route.port.index();
                self.ports[out_port].output.va_req.set(slot);
                pending.set(out_port);
            }
        }
        for out_port in pending {
            // Round-robin over the flattened (input port, VC) space. Each
            // grant leaves the request set before the scheme hook borrows
            // the whole kernel, so the set drains to empty by itself.
            loop {
                let port = &mut self.ports[out_port].output;
                let Some(slot) = port.va_arb.grant(&port.va_req) else {
                    break;
                };
                port.va_req.clear(slot);
                let in_port = PortIndex::new(slot / vcs);
                let vc = VcIndex::new(slot % vcs);
                let flit = *self.pool.get(
                    self.bank
                        .head_ready(slot, cycle)
                        .expect("request implies ready head"),
                );
                if let Some((out_vc, express)) = hooks.allocate_out_vc(self, &flit, (in_port, vc)) {
                    let state = InVc {
                        route: Some(flit.route),
                        out_vc: Some(out_vc),
                        express,
                        ..self.in_vc(slot)
                    };
                    self.set_in_vc(slot, state);
                    self.va_now.set(slot);
                    self.refresh_vc_masks(in_port, vc);
                    self.refresh_credit_gate(in_port, vc);
                    self.stats.va_grants += 1;
                    self.energy.record(EnergyEvent::Arbitration);
                    if let Some(p) = self.counters.as_deref_mut() {
                        p.va_granted_at[slot] = cycle;
                        p.on_va_grant(in_port);
                    }
                }
            }
        }
    }

    /// Separable switch arbitration. Non-speculative requests (VC held
    /// before this cycle) beat speculative ones (VC granted this cycle, Peh &
    /// Dally HPCA 2001). Grants reserve a credit, traverse next cycle, and
    /// fire [`SchemeHooks::on_sa_grant`].
    fn arbitrate_switch<H: SchemeHooks>(&mut self, hooks: &mut H, cycle: u64) {
        // Input-first stage: one winning VC per input port. Only ports with
        // an SA-eligible, credit-backed VC (`sa_ports`) are visited, and
        // within a port only those VCs; the per-cycle conditions — ready
        // head, scheme skip, downstream credit — are the only ones
        // re-checked per bit, each against one record. With no such port
        // there is no request, no grant and no arbiter movement.
        let mut pending = Mask64::EMPTY;
        for in_port in self.sa_ports {
            let in_port_i = PortIndex::new(in_port);
            let port = &self.ports[in_port].input;
            let mut nonspec = Mask64::EMPTY;
            let mut spec = Mask64::EMPTY;
            // Credit-starved VCs are masked out of the scan entirely (their
            // bit tracks the gating counter exactly); the per-bit credit
            // re-check below is the cross-checked safety net.
            for vc in port.sa_cand & port.sa_credit {
                let slot = in_port * self.vcs + vc;
                let state = self.in_vc(slot);
                debug_assert!(
                    !self.bank.is_empty(slot) && !state.pass_through,
                    "stale SA candidate bit (missed refresh_vc_masks)"
                );
                let (Some(route), Some(out_vc)) = (state.route, state.out_vc) else {
                    unreachable!("SA candidate bit requires route and output VC")
                };
                if self.bank.head_ready(slot, cycle).is_none() {
                    continue;
                }
                if hooks.sa_skip(in_port_i, VcIndex::new(vc), route) {
                    continue;
                }
                let sub = route.hops as usize - 1;
                if self.credits_available(route.port, sub, out_vc) == 0 {
                    debug_assert!(false, "stale SA credit bit (missed note_credit_gate)");
                    continue;
                }
                if self.va_now.get(slot) {
                    spec.set(vc);
                } else {
                    nonspec.set(vc);
                }
            }
            let speculative = !nonspec.any();
            let requests = if speculative { spec } else { nonspec };
            let port = &mut self.ports[in_port].input;
            if let Some(vc) = port.arb.grant(&requests) {
                port.sa_winner = VcIndex::new(vc);
                let route = self.in_vc(in_port * self.vcs + vc).route;
                let out_port = route.expect("winner has route").port.index();
                if speculative {
                    self.ports[out_port].output.sa_spec.set(in_port);
                } else {
                    self.ports[out_port].output.sa_nonspec.set(in_port);
                }
                pending.set(out_port);
            }
        }
        // Output stage: one winner per output port, non-speculative first.
        // Only output ports with a first-stage winner are visited. A port's
        // decision depends only on its own request sets and arbiter, both
        // fixed by the input stage, so each grant takes effect (credit
        // reservation, grant recording, scheme hook) as it is decided, in
        // ascending output-port order.
        for out_port in pending {
            let port = &mut self.ports[out_port].output;
            let nonspec = std::mem::take(&mut port.sa_nonspec);
            let spec = std::mem::take(&mut port.sa_spec);
            let requests = if nonspec.any() { nonspec } else { spec };
            let in_port = port
                .sa_arb
                .grant(&requests)
                .expect("a pending output has a requester");
            // The winner's claim is as the input stage saw it: no grant of
            // this loop changes an input VC's claim.
            let vc = self.ports[in_port].input.sa_winner;
            let state = self.in_vc(in_port * self.vcs + vc.index());
            let route = state.route.expect("winner has route");
            let out_vc = state.out_vc.expect("winner has output VC");
            let in_port = PortIndex::new(in_port);
            self.consume_credit(route.port, route.hops as usize - 1, out_vc);
            self.ports[out_port].output.st_grant = (in_port, vc);
            self.st_ports.set(out_port);
            self.stats.sa_grants += 1;
            self.energy.record(EnergyEvent::Arbitration);
            if let Some(p) = self.counters.as_deref_mut() {
                p.on_sa_grant(in_port);
            }
            hooks.on_sa_grant(self, cycle, in_port, vc, route);
        }
    }
}

/// A kernel-backed router: the shared [`PipelineKernel`] paired with one
/// scheme's [`SchemeHooks`], and the only [`RouterModel`] implementation for
/// routers built on the kernel — a scheme module supplies its hooks type and
/// a constructor, never another copy of this plumbing. Dispatch stays
/// static: `step::<H>` monomorphizes per scheme.
pub struct KernelRouter<H> {
    kernel: PipelineKernel,
    hooks: H,
}

impl<H> KernelRouter<H> {
    /// Pairs a kernel with the hooks of the scheme it runs.
    pub(crate) fn new(kernel: PipelineKernel, hooks: H) -> Self {
        Self { kernel, hooks }
    }

    /// Enables observability per `metrics`: per-port counters at
    /// `MetricsLevel::Full`, a trace ring when the trace spec selects this
    /// router. Call before the first `step`.
    pub fn enable_metrics(&mut self, metrics: &MetricsConfig) {
        self.kernel.enable_metrics(metrics);
    }

    /// Factory construction: enables observability per `metrics` and boxes
    /// the router for the engine.
    pub(crate) fn boxed(mut self, metrics: &MetricsConfig) -> Box<dyn RouterModel>
    where
        H: SchemeHooks + Send + 'static,
    {
        self.enable_metrics(metrics);
        Box::new(self)
    }

    /// The scheme state (exposed for white-box tests).
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// The kernel state, for the crate's white-box tests.
    #[cfg(test)]
    pub(crate) fn kernel(&self) -> &PipelineKernel {
        &self.kernel
    }

    /// The flit slab this router reads and writes flit bodies through
    /// (exposed so tests can allocate arrival flits and inspect emissions).
    pub fn pool(&self) -> &Arc<FlitPool> {
        self.kernel.pool()
    }
}

impl<H: SchemeHooks + Send> RouterModel for KernelRouter<H> {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        self.kernel.receive_flit(in_port, flit);
    }

    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit) {
        self.kernel.receive_credit(out_port, credit);
    }

    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        self.kernel.step(&mut self.hooks, cycle, out);
    }

    /// Exact step-is-no-op predicate: nothing staged or buffered (the kernel
    /// phases and every flit-driven hook have no work) and no pending scheme
    /// state transition. Arbiters do not move on empty request masks, so a
    /// skipped step is bit-identical to an executed one (DESIGN.md §13).
    fn is_idle(&self) -> bool {
        self.kernel.is_idle_base() && self.hooks.is_idle(&self.kernel)
    }

    fn buffered_flits(&self) -> usize {
        self.kernel.buffered_flits()
    }

    fn stats(&self) -> RouterStats {
        self.kernel.stats
    }

    fn energy(&self) -> EnergyCounters {
        self.kernel.energy
    }

    fn observation(&self) -> Option<RouterObservation> {
        self.kernel.observation()
    }

    fn tracer(&self) -> Option<&TraceRing> {
        self.kernel.trace_ring()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Mecs, Mesh, Topology};
    use proptest::prelude::*;

    #[test]
    fn a_claim_survives_its_tag_word() {
        assert_eq!(InVc::FREE.pack(), 0, "a fresh bank's zero tag is a free VC");
        let routes = [
            None,
            Some(RouteInfo::new(PortIndex::new(0))),
            Some(RouteInfo::multidrop(PortIndex::new(63), 255)),
        ];
        let out_vcs = [None, Some(VcIndex::new(0)), Some(VcIndex::new(63))];
        for route in routes {
            for out_vc in out_vcs {
                for (express, pass_through) in [(0, false), (255, true), (1, false)] {
                    let claim = InVc {
                        route,
                        out_vc,
                        express,
                        pass_through,
                    };
                    assert_eq!(InVc::unpack(claim.pack()), claim);
                }
            }
        }
    }

    // The kernel's flat-array accessors must agree with the documented
    // scalar index model (`in_port * vcs + vc`, `credit_base[p] + sub * vcs +
    // vc`) under arbitrary claim/release/credit operation sequences.

    /// One mutation of kernel state reachable through the hook-facing accessors.
    #[derive(Copy, Clone, Debug)]
    enum KernelOp {
        ClaimInput { slot: usize, out: usize, pass: bool },
        ReleaseInput { slot: usize },
        ClaimOut { out: usize },
        ReleaseOut { out: usize },
        ConsumeCredit { credit: usize },
        RefillCredit { credit: usize },
    }

    /// Scalar mirror of the kernel's per-VC / per-output state, indexed with the
    /// documented formulas only.
    struct ScalarModel {
        vcs: usize,
        routes: Vec<Option<RouteInfo>>,
        out_vcs: Vec<Option<VcIndex>>,
        pass: Vec<bool>,
        owners: Vec<Option<(PortIndex, VcIndex)>>,
        credits: Vec<u32>,
        credit_base: Vec<usize>,
        capacity: u32,
    }

    impl ScalarModel {
        fn new(topo: &dyn Topology, id: RouterId, config: NetworkConfig) -> Self {
            let vcs = config.vcs_per_port as usize;
            let in_slots = topo.in_ports(id) * vcs;
            let out_ports = topo.out_ports(id);
            let mut credit_base = vec![0usize];
            for p in 0..out_ports {
                let subs = topo.channel_len(id, PortIndex::new(p)) as usize;
                credit_base.push(credit_base[p] + subs * vcs);
            }
            Self {
                vcs,
                routes: vec![None; in_slots],
                out_vcs: vec![None; in_slots],
                pass: vec![false; in_slots],
                owners: vec![None; out_ports * vcs],
                credits: vec![config.buffer_depth; credit_base[out_ports]],
                credit_base,
                capacity: config.buffer_depth,
            }
        }

        fn in_pv(&self, slot: usize) -> (PortIndex, VcIndex) {
            (
                PortIndex::new(slot / self.vcs),
                VcIndex::new(slot % self.vcs),
            )
        }

        fn out_pv(&self, slot: usize) -> (PortIndex, VcIndex) {
            (
                PortIndex::new(slot / self.vcs),
                VcIndex::new(slot % self.vcs),
            )
        }

        /// Decomposes a flat credit index back into `(port, sub, vc)`.
        fn credit_psv(&self, slot: usize) -> (PortIndex, usize, VcIndex) {
            let port = self.credit_base.partition_point(|&b| b <= slot) - 1;
            let within = slot - self.credit_base[port];
            (
                PortIndex::new(port),
                within / self.vcs,
                VcIndex::new(within % self.vcs),
            )
        }
    }

    fn kernel_op_strategy(
        in_slots: usize,
        out_slots: usize,
        credit_slots: usize,
    ) -> impl Strategy<Value = KernelOp> {
        prop_oneof![
            (0..in_slots, 0..out_slots, any::<bool>())
                .prop_map(|(slot, out, pass)| KernelOp::ClaimInput { slot, out, pass }),
            (0..in_slots).prop_map(|slot| KernelOp::ReleaseInput { slot }),
            (0..out_slots).prop_map(|out| KernelOp::ClaimOut { out }),
            (0..out_slots).prop_map(|out| KernelOp::ReleaseOut { out }),
            (0..credit_slots).prop_map(|credit| KernelOp::ConsumeCredit { credit }),
            (0..credit_slots).prop_map(|credit| KernelOp::RefillCredit { credit }),
        ]
    }

    /// Applies a random operation sequence through the accessors and checks every
    /// accessor against the scalar model after each step. MECS gives multidrop
    /// channels (`channel_len > 1`), so the per-port credit strides differ.
    fn check_accessors_track_scalar_model(topo: SharedTopology, id: RouterId, ops: &[KernelOp]) {
        let config = NetworkConfig::paper();
        let pool = Arc::new(noc_base::FlitPool::new(16, 1));
        let mut kernel = PipelineKernel::new(id, topo.clone(), config, false, pool);
        let mut model = ScalarModel::new(topo.as_ref(), id, config);

        for &op in ops {
            match op {
                KernelOp::ClaimInput { slot, out, pass } => {
                    let (p, v) = model.in_pv(slot);
                    let (op_, ov) = model.out_pv(out);
                    // hops = 1 keeps the route valid on every topology.
                    let route = RouteInfo { port: op_, hops: 1 };
                    if pass {
                        kernel.claim_pass_through(p, v, route, ov);
                    } else {
                        kernel.claim_input_vc(p, v, route, ov);
                    }
                    model.routes[slot] = Some(route);
                    model.out_vcs[slot] = Some(ov);
                    if pass {
                        model.pass[slot] = true;
                    }
                }
                KernelOp::ReleaseInput { slot } => {
                    let (p, v) = model.in_pv(slot);
                    kernel.release_input_vc(p, v);
                    model.routes[slot] = None;
                    model.out_vcs[slot] = None;
                    model.pass[slot] = false;
                }
                KernelOp::ClaimOut { out } => {
                    if model.owners[out].is_some() {
                        continue; // claiming a taken VC panics by contract
                    }
                    let (p, v) = model.out_pv(out);
                    kernel.claim_out_vc(p, v, (PortIndex::new(0), v));
                    model.owners[out] = Some((PortIndex::new(0), v));
                }
                KernelOp::ReleaseOut { out } => {
                    let (p, v) = model.out_pv(out);
                    kernel.release_out_vc(p, v);
                    model.owners[out] = None;
                }
                KernelOp::ConsumeCredit { credit } => {
                    if model.credits[credit] == 0 {
                        continue; // underflow panics by contract
                    }
                    let (p, sub, v) = model.credit_psv(credit);
                    kernel.consume_credit(p, sub, v);
                    model.credits[credit] -= 1;
                }
                KernelOp::RefillCredit { credit } => {
                    if model.credits[credit] == model.capacity {
                        continue; // overflow panics by contract
                    }
                    let (p, sub, v) = model.credit_psv(credit);
                    kernel.receive_credit(
                        p,
                        Credit {
                            vc: v,
                            sub: sub as u8,
                        },
                    );
                    model.credits[credit] += 1;
                }
            }

            // Full sweep: every accessor must agree with the scalar index model.
            for slot in 0..model.routes.len() {
                let (p, v) = model.in_pv(slot);
                assert_eq!(kernel.input_route(p, v), model.routes[slot]);
                assert_eq!(kernel.input_out_vc(p, v), model.out_vcs[slot]);
                assert_eq!(kernel.input_pass_through(p, v), model.pass[slot]);
                assert!(kernel.input_empty(p, v));
            }
            for out in 0..model.owners.len() {
                let (p, v) = model.out_pv(out);
                assert_eq!(kernel.out_vc_is_free(p, v), model.owners[out].is_none());
            }
            for slot in 0..model.credits.len() {
                let (p, sub, v) = model.credit_psv(slot);
                assert_eq!(kernel.credits_available(p, sub, v), model.credits[slot]);
            }
            for p in 0..topo.out_ports(id) {
                let port = PortIndex::new(p);
                for sub in 0..topo.channel_len(id, port) as usize {
                    let base = model.credit_base[p] + sub * model.vcs;
                    let expected: u32 = model.credits[base..base + model.vcs].iter().sum();
                    assert_eq!(kernel.credits_at_sub(port, sub), expected);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// SoA accessors agree with the scalar `(port, vc)` index model on a
        /// mesh router (uniform channel length 1).
        #[test]
        fn accessors_match_scalar_model_on_mesh(
            ops in proptest::collection::vec(kernel_op_strategy(5 * 4, 5 * 4, 5 * 4), 1..60),
        ) {
            // Center router of a 3x3 mesh: 5 in / 5 out ports, 4 VCs each.
            let topo: SharedTopology = Arc::new(Mesh::new(3, 3, 1));
            check_accessors_track_scalar_model(topo, RouterId::new(4), &ops);
        }

        /// Same on a MECS router, whose multidrop output channels give each port
        /// a different credit-region stride.
        #[test]
        fn accessors_match_scalar_model_on_mecs(
            ops in proptest::collection::vec(kernel_op_strategy(1, 1, 1), 1..60),
        ) {
            let topo: SharedTopology = Arc::new(Mecs::new(4, 4, 1));
            let id = RouterId::new(5);
            let vcs = 4usize;
            let in_slots = topo.in_ports(id) * vcs;
            let out_slots = topo.out_ports(id) * vcs;
            let credit_slots: usize = (0..topo.out_ports(id))
                .map(|p| topo.channel_len(id, PortIndex::new(p)) as usize * vcs)
                .sum();
            // Remap the unit-range ops onto the real slot counts so the strategy
            // does not need the topology at construction time.
            let scaled: Vec<KernelOp> = ops
                .iter()
                .enumerate()
                .map(|(i, &op)| match op {
                    KernelOp::ClaimInput { pass, .. } => KernelOp::ClaimInput {
                        slot: i * 7 % in_slots,
                        out: i * 11 % out_slots,
                        pass,
                    },
                    KernelOp::ReleaseInput { .. } => KernelOp::ReleaseInput { slot: i * 7 % in_slots },
                    KernelOp::ClaimOut { .. } => KernelOp::ClaimOut { out: i * 11 % out_slots },
                    KernelOp::ReleaseOut { .. } => KernelOp::ReleaseOut { out: i * 11 % out_slots },
                    KernelOp::ConsumeCredit { .. } => KernelOp::ConsumeCredit { credit: i * 13 % credit_slots },
                    KernelOp::RefillCredit { .. } => KernelOp::RefillCredit { credit: i * 13 % credit_slots },
                })
                .collect();
            check_accessors_track_scalar_model(topo, id, &scaled);
        }
    }
}
