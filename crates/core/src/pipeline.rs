//! The generic speculative two-stage pipeline kernel shared by the crate's
//! router schemes.
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
//! round-robin VA and SA allocators over its slot sets, ST-grant queues
//! preallocated to their structural maximum, and the full
//! stats/metrics/trace plumbing. A scheme plugs in through
//! [`SchemeHooks`]: the circuit hooks ([`crate::router`]) implement
//! circuit establishment/termination/reuse/bypass/speculation on top of the
//! kernel, for the paper's schemes and, behind a hot-flow gate
//! ([`crate::hybrid`]), the profiled hybrid; the EVC hooks ([`crate::evc`])
//! the express latch and the NVC/EVC split — each a thin hook set rather
//! than a second copy of the pipeline. Kernel and hooks are crate-private:
//! outside the crate a router is a [`KernelRouter`] behind a factory.
//!
//! # One record array per index space (DESIGN.md §15)
//!
//! The kernel keeps one array of records per index space, not one array per
//! field, laid out so that what a step reads together shares a cache line:
//!
//! - **input VC** (`in_port * vcs + vc`): a slot of the [`FifoBank`] — ring
//!   cursor, flit refs and ready cycles, with the per-packet claim
//!   ([`InVc`]) in the slot's tag word; 64 bytes at the paper's depth of 4;
//! - **port**: [`Port`] — input port `p`'s [`InPort`] (the input-first
//!   arbiter, the last crossbar connection) and output port `p`'s [`OutPort`]
//!   (VA/SA request sets, the output-side arbiters, the grant awaiting ST);
//! - **output VC per drop position** (`(out_port * sub_stride + sub) * vcs +
//!   vc`): [`OutVc`] — the credit counter and, at `sub == 0`, the owner and
//!   cached lookahead of output VC `(out_port, vc)`;
//! - **sub-channel** (`out_port * sub_stride + sub`): the router at its far
//!   end.
//!
//! Every set over one router's ports or VCs is a one-word [`Mask64`]; the
//! sets that span `in_ports × vcs` are [`WordMask`]s and the four
//! [`SlotSets`] (one inline word each up to 64 input VCs), whose bits are
//! the allocators' requesters. A mask's bit index IS the index of the record
//! it names.
//! The layout is private; scheme hooks go through the accessor methods
//! (`input_route`, `claim_input_vc`, `credits_available`, `claim_out_vc`,
//! …), which also keep the kernel's summaries coherent. The golden
//! reports under `tests/golden/` pin the behaviour, `tests/zero_alloc.rs`
//! the bytes a router costs.

use noc_base::{BitArbiter, Mask64, WordMask};
use noc_base::{Credit, Flit, FlitPool, FlitRef, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_sim::blocks::FifoBank;
use noc_sim::{
    MetricsConfig, MetricsLevel, NetworkConfig, PipelineStage, RouterModel, RouterObservation,
    RouterOutputs, RouterStats, SentFlit, TraceEventKind, TraceRing, TRACE_RING_EVENTS,
};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// Scheme-specific extension points of the pipeline kernel.
///
/// [`PipelineKernel::step`] calls these in a fixed order (the phase letters
/// mirror the pre-kernel routers):
///
/// 1. ST drain of last cycle's SA grants (kernel);
/// 2. [`drain_reuse`](Self::drain_reuse) — scheme state changes ahead of
///    this cycle's arrivals and traversals from the buffers (phases A and
///    C: the hybrid's freeze, pseudo-circuit credit-exhaustion termination,
///    reuse);
/// 3. arrival acceptance (kernel), each arrival first offered to
///    [`try_arrival_intercept`](Self::try_arrival_intercept) (phase D:
///    buffer bypass / express latch);
/// 4. VC allocation (kernel), candidate classification via
///    [`allocate_out_vc`](Self::allocate_out_vc) (phase E);
/// 5. switch arbitration (kernel), with
///    [`sa_skip`](Self::sa_skip) filtering candidates and
///    [`on_sa_grant`](Self::on_sa_grant) fired per grant (phase F);
/// 6. [`end_cycle`](Self::end_cycle) — after all allocation (phase G:
///    pseudo-circuit speculation).
///
/// The seventh hook, [`is_idle`](Self::is_idle), is not a phase: it is the
/// scheme's half of the predicate that lets the engine skip `step` entirely.
///
/// Hooks receive `&mut PipelineKernel` and use its accessor methods and
/// helpers ([`PipelineKernel::send_flit`],
/// [`PipelineKernel::traverse_from_buffer`], [`PipelineKernel::trace`])
/// freely; the kernel guarantees no internal borrow is held across a hook
/// call. Hooks change kernel state only through those accessors, which keep
/// the kernel's summaries coherent.
///
/// One thing a hook must not do: deliver events. `step` walks this cycle's
/// arrivals and last cycle's grants in place and clears both queues after
/// the walk, so [`PipelineKernel::receive_flit`] belongs to the engine's
/// delivery phase, between steps — a flit handed over from inside a hook
/// would be dropped (debug builds assert the queues did not grow).
pub(crate) trait SchemeHooks {
    /// Runs after the ST drain (which changes no credit counter and no
    /// scheme state), before arrivals: the scheme's start-of-cycle state
    /// changes, then buffer traversals that skip switch arbitration.
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
    /// ([`RouterModel::is_idle`]): `false` whenever `drain_reuse` or
    /// `end_cycle` would change state on an otherwise empty router (a circuit
    /// termination, a speculative restore). Only consulted when
    /// [`PipelineKernel::is_idle_base`] holds, so the flit-driven hooks
    /// cannot fire. Schemes without cycle-driven state keep the default.
    fn is_idle(&self, _k: &PipelineKernel) -> bool {
        true
    }
}

/// The per-packet claim of one input VC — what the VA and SA gathers read
/// beside the VC's head — packed by [`pack`](Self::pack) into the tag word
/// of the VC's [`FifoBank`] slot (`in_port * vcs + vc`), beside the ring it
/// gates.
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

/// The kernel's four bitsets over the input-VC slots (`in_port * vcs + vc`,
/// the bank's slot index). Each is written by one funnel, so the allocators
/// find their requesters by walking words instead of re-reading every VC's
/// claim and head:
///
/// - [`FILLED`](Self::FILLED): the VC buffers a flit — set by the one
///   `bank.push` (`accept_arrivals`), cleared by the one `bank.pop` that
///   empties it (`traverse_from_buffer`);
/// - [`CLAIMED`](Self::CLAIMED): the VC's claim tag is not zero, i.e. not
///   [`InVc::FREE`] — kept by `write_tag`, the one writer of a tag;
/// - [`FRESH`](Self::FRESH): this step pushed the VC's head into an empty
///   buffer, so the head is not ready before the next cycle; every other
///   buffered head was pushed in an earlier step and is ready;
/// - [`VA_NOW`](Self::VA_NOW): this step's VA phase granted the VC, which
///   makes its SA request of the same step speculative.
///
/// FRESH and VA_NOW are cleared at the end of every step. A router with at
/// most 64 slots keeps its words inline, one per set; a wider one keeps all
/// of them in one heap block, word `w` of set `s` at `w * SETS + s`.
struct SlotSets {
    inline: [u64; Self::SETS],
    heap: Box<[u64]>,
}

impl SlotSets {
    const FILLED: usize = 0;
    const CLAIMED: usize = 1;
    const FRESH: usize = 2;
    const VA_NOW: usize = 3;
    const SETS: usize = 4;

    /// All four sets empty, over `slots` slots.
    fn new(slots: usize) -> Self {
        let heap = if slots > 64 {
            vec![0; slots.div_ceil(64) * Self::SETS].into()
        } else {
            Box::default()
        };
        Self {
            inline: [0; Self::SETS],
            heap,
        }
    }

    /// The storage words, wherever they live.
    #[inline]
    fn all(&self) -> &[u64] {
        if self.heap.is_empty() {
            &self.inline
        } else {
            &self.heap
        }
    }

    #[inline]
    fn all_mut(&mut self) -> &mut [u64] {
        if self.heap.is_empty() {
            &mut self.inline
        } else {
            &mut self.heap
        }
    }

    /// Words per set.
    #[inline]
    fn words(&self) -> usize {
        (self.heap.len() / Self::SETS).max(1)
    }

    /// Word `w` of set `set`.
    #[inline]
    fn word(&self, set: usize, w: usize) -> u64 {
        self.all()[w * Self::SETS + set]
    }

    #[inline]
    fn get(&self, set: usize, slot: usize) -> bool {
        self.word(set, slot / 64) >> (slot % 64) & 1 != 0
    }

    #[inline]
    fn assign(&mut self, set: usize, slot: usize, value: bool) {
        let word = &mut self.all_mut()[slot / 64 * Self::SETS + set];
        let shift = slot % 64;
        *word = *word & !(1 << shift) | u64::from(value) << shift;
    }

    /// Word `w` of the VCs whose ready head may ask VA: FILLED, not CLAIMED,
    /// not FRESH.
    #[inline]
    fn va_word(&self, w: usize) -> u64 {
        let s = &self.all()[w * Self::SETS..][..Self::SETS];
        s[Self::FILLED] & !s[Self::CLAIMED] & !s[Self::FRESH]
    }

    /// Word `w` of the VCs whose ready head may ask SA: FILLED, CLAIMED, not
    /// FRESH.
    #[inline]
    fn sa_word(&self, w: usize) -> u64 {
        let s = &self.all()[w * Self::SETS..][..Self::SETS];
        s[Self::FILLED] & s[Self::CLAIMED] & !s[Self::FRESH]
    }

    /// Bits `start .. start + len` (`1 <= len <= 64`) of the set whose words
    /// `word` gives, shifted down to bit 0: one input port's VCs.
    #[inline]
    fn range(&self, start: usize, len: usize, word: impl Fn(&Self, usize) -> u64) -> u64 {
        debug_assert!((1..=64).contains(&len));
        let (w, shift) = (start / 64, start % 64);
        let mut bits = word(self, w) >> shift;
        if shift + len > 64 {
            bits |= word(self, w + 1) << (64 - shift);
        }
        bits & u64::MAX >> (64 - len)
    }

    /// Empties FRESH and VA_NOW: the step that wrote them is over.
    #[inline]
    fn end_step(&mut self) {
        for group in self.all_mut().chunks_exact_mut(Self::SETS) {
            group[Self::FRESH] = 0;
            group[Self::VA_NOW] = 0;
        }
    }
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
    /// Per-port observability counters (`docs/METRICS.md`); `None` (one
    /// null test per event) unless built at [`MetricsLevel::Full`].
    pub(crate) observed: Option<Box<RouterObservation>>,
    /// Per input-VC slot at [`MetricsLevel::Full`] (empty otherwise): the
    /// cycle the VA phase granted the packet holding the VC its output VC
    /// (`u64::MAX`: none, or a reuse-path claim). The VA/SA stage samples
    /// are measured from it.
    va_granted_at: Box<[u64]>,
    /// Lifecycle tracer; `None` unless this router was selected by a
    /// [`noc_sim::TraceSpec`].
    pub(crate) tracer: Option<Box<TraceRing>>,
    // At most `Mask64::WIDTH` each (`new` asserts it), so a byte each.
    vcs: u8,
    in_ports: u8,
    out_ports: u8,
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
    // Input ports with a FILLED slot (`SlotSets`): set by the push, re-derived
    // from the port's FILLED bits when a pop empties a VC.
    occupied_ports: Mask64,
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
    // + vc` of every slot set and every `va_req` names slot `in_port * vcs +
    // vc` of `bank`; a bit of a port summary names `ports[p].input` or
    // `.output`.
    //
    // Every input VC: its flit ring, and its claim (`InVc`) in the tag.
    bank: FifoBank,
    ports: Box<[Port]>,
    out_vcs: Box<[OutVc]>,
    // The router at the far end of each drop position (sub-channel):
    // `topo.link`, asked when the first header leaves by it.
    far_routers: Box<[Option<RouterId>]>,
    // Sub-channel records per output port: the widest channel's drop count
    // (1 on point-to-point topologies); narrower ports leave theirs unused.
    sub_stride: usize,
    credit_capacity: u32,
    // This cycle's arrivals; `step` walks them in place and clears them
    // (see the `SchemeHooks` contract).
    arrivals: Vec<(PortIndex, FlitRef)>,
    // Which input VCs are filled, claimed, freshly filled and VA-granted
    // this step: the allocators' requester sets.
    sets: SlotSets,
}

impl PipelineKernel {
    /// Builds the kernel for one router. `pool` is the network-wide flit
    /// slab the router's buffers reference into.
    pub(crate) fn new(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
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
        let input = InPort {
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
        Self {
            id,
            concentration: topo.concentration(),
            topo,
            stats: RouterStats::default(),
            observed: None,
            va_granted_at: Box::default(),
            tracer: None,
            vcs: vcs as u8,
            in_ports: in_ports as u8,
            out_ports: out_ports as u8,
            in_busy: Mask64::EMPTY,
            out_busy: Mask64::EMPTY,
            occupied_ports: Mask64::EMPTY,
            // `FifoBank::new` below refuses a zero depth, so every connected
            // sub-channel starts with credit.
            creditless_ports: Mask64::EMPTY,
            st_ports: Mask64::EMPTY,
            pool,
            bank: FifoBank::new(slots, config.buffer_depth as usize),
            ports,
            out_vcs: vec![out_vc; out_ports * sub_stride * vcs].into(),
            far_routers: vec![None; out_ports * sub_stride].into(),
            sub_stride,
            credit_capacity: config.buffer_depth,
            // Reserved to its structural maximum (one flit per input port
            // per cycle) so steady-state stepping never allocates
            // (tests/zero_alloc.rs).
            arrivals: Vec::with_capacity(in_ports),
            sets: SlotSets::new(slots),
        }
    }

    /// VCs per port.
    #[inline]
    fn vcs(&self) -> usize {
        usize::from(self.vcs)
    }

    /// Input ports.
    #[inline]
    fn in_ports(&self) -> usize {
        usize::from(self.in_ports)
    }

    /// Output ports.
    #[inline]
    fn out_ports(&self) -> usize {
        usize::from(self.out_ports)
    }

    /// The flat slot of input VC `(in_port, vc)`: `in_port * vcs + vc`, the
    /// same index the VA request sets use for their bits.
    #[inline]
    fn slot(&self, in_port: PortIndex, vc: VcIndex) -> usize {
        debug_assert!(in_port.index() < self.in_ports() && vc.index() < self.vcs());
        in_port.index() * self.vcs() + vc.index()
    }

    /// The claim of the input VC at `slot`, unpacked from its bank tag.
    #[inline]
    fn in_vc(&self, slot: usize) -> InVc {
        InVc::unpack(self.bank.tag(slot))
    }

    /// Stores the claim of the input VC at `slot`.
    #[inline]
    fn set_in_vc(&mut self, slot: usize, state: InVc) {
        self.write_tag(slot, state.pack());
    }

    /// The one writer of a claim tag, and so of the CLAIMED set: a VC is
    /// claimed exactly when its tag is not [`InVc::FREE`]'s zero.
    #[inline]
    fn write_tag(&mut self, slot: usize, tag: u64) {
        self.bank.set_tag(slot, tag);
        self.sets.assign(SlotSets::CLAIMED, slot, tag != 0);
    }

    /// The index in `far_routers` of drop position `sub` of `out_port`.
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
        debug_assert!(out_port.index() < self.out_ports() && vc.index() < self.vcs());
        debug_assert!(sub < self.sub_stride);
        (out_port.index() * self.sub_stride + sub) * self.vcs() + vc.index()
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
    /// output VC. Used by scheme paths that grant VA outside the kernel's VA
    /// phase (pseudo-circuit reuse and bypass); the VA-grant cycle stays
    /// unset, marking later SA requests non-speculative.
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
    }

    /// Claims input VC `(in_port, vc)` for an express stream latching
    /// through (EVC): like [`claim_input_vc`](Self::claim_input_vc) but
    /// marks the claim pass-through; the first flit that buffers into the
    /// VC clears the mark.
    pub(crate) fn claim_pass_through(
        &mut self,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
        out_vc: VcIndex,
    ) {
        let slot = self.slot(in_port, vc);
        self.write_tag(slot, self.bank.tag(slot) | InVc::PASS_THROUGH);
        self.claim_input_vc(in_port, vc, route, out_vc);
    }

    /// Releases every per-packet claim of input VC `(in_port, vc)` (route,
    /// output VC, express budget, pass-through). The tail-flit counterpart
    /// of the claim accessors; the output-VC allocation itself is released
    /// separately via [`release_out_vc`](Self::release_out_vc).
    pub(crate) fn release_input_vc(&mut self, in_port: PortIndex, vc: VcIndex) {
        self.free_in_vc(self.slot(in_port, vc));
    }

    /// Frees the claim at `slot`, and its VA-grant cycle with it.
    #[inline]
    fn free_in_vc(&mut self, slot: usize) {
        self.set_in_vc(slot, InVc::FREE);
        if let Some(at) = self.va_granted_at.get_mut(slot) {
            *at = u64::MAX;
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
        let first = self.out_slot(out_port, sub, VcIndex::new(0));
        self.out_vcs[first..][..self.vcs()]
            .iter()
            .map(|vc| vc.credits)
            .sum()
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
        if *counter == 0 && self.credits_at_sub(out_port, sub) == 0 {
            self.creditless_ports.set(out_port.index());
        }
    }

    /// Enables observability per `metrics`: per-port counters at
    /// [`MetricsLevel::Full`], and a lifecycle trace ring when this router is
    /// selected by the trace spec. Call before the first `step`.
    pub(crate) fn enable_metrics(&mut self, metrics: &MetricsConfig) {
        if metrics.level == MetricsLevel::Full {
            let (id, ins, outs) = (self.id.index(), self.in_ports(), self.out_ports());
            self.observed = Some(Box::new(RouterObservation::zeroed(id, ins, outs)));
            self.va_granted_at = vec![u64::MAX; ins * self.vcs()].into();
        }
        if let Some(spec) = &metrics.trace {
            if spec.selects(self.id.index()) {
                self.tracer = Some(Box::new(TraceRing::new(self.id.index(), TRACE_RING_EVENTS)));
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

    /// The lifecycle tracer, if enabled.
    pub(crate) fn trace_ring(&self) -> Option<&TraceRing> {
        self.tracer.as_deref()
    }

    /// Queues an arriving flit for the next `step`'s arrival phase. The
    /// router takes ownership of the pool slot behind `flit`. Called between
    /// steps, never from a scheme hook (see [`SchemeHooks`]).
    pub(crate) fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        debug_assert!(in_port.index() < self.in_ports(), "bad input port");
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
        if self.creditless_ports.get(out_port.index()) {
            // The port leaves the mask only when no sub-channel of it is
            // still at zero.
            let subs = usize::from(self.ports[out_port.index()].output.subs);
            let creditless = (0..subs).any(|sub| self.credits_at_sub(out_port, sub) == 0);
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
        let slots = self.in_ports() * self.vcs();
        self.arrivals.len() + (0..slots).map(|s| self.bank.len(s)).sum::<usize>()
    }

    /// Downstream credits of `(out_port, sub, vc)` as the credit law counts
    /// them between steps: the counter, plus the credit an SA grant reserved
    /// for a flit that traverses at the next step's ST drain.
    pub(crate) fn credits_held(&self, out_port: PortIndex, sub: usize, vc: VcIndex) -> u32 {
        let reserved = self.st_ports.get(out_port.index()) && {
            let (in_port, in_vc) = self.ports[out_port.index()].output.st_grant;
            let claim = self.in_vc(self.slot(in_port, in_vc));
            claim.out_vc == Some(vc) && claim.route.is_some_and(|r| r.hops as usize - 1 == sub)
        };
        self.credits_available(out_port, sub, vc) + u32::from(reserved)
    }

    /// Flits input VC `(in_port, vc)` holds between steps: buffered, and
    /// arrived but not yet stepped — its downstream side of the credit law.
    pub(crate) fn flits_on(&self, in_port: PortIndex, vc: VcIndex) -> usize {
        let arrived = self
            .arrivals
            .iter()
            .filter(|&&(p, r)| p == in_port && self.pool.get(r).vc == vc)
            .count();
        self.bank.len(self.slot(in_port, vc)) + arrived
    }

    /// The ownership law between cycles, `Err` naming its first violation:
    /// every owned output VC's owner input VC holds that output VC on a
    /// route to its port, and every input VC holding one is its owner.
    pub(crate) fn check_ownership(&self) -> Result<(), String> {
        let owner = |port, vc| self.out_vcs[self.out_slot(port, 0, vc)].owner;
        for (p, vc) in (0..self.out_ports()).flat_map(|p| (0..self.vcs()).map(move |v| (p, v))) {
            let (port, vc) = (PortIndex::new(p), VcIndex::new(vc));
            let Some((ip, ivc)) = owner(port, vc) else {
                continue;
            };
            let held = self.in_vc(self.slot(ip, ivc));
            if held.out_vc != Some(vc) || held.route.map(|r| r.port) != Some(port) {
                let id = self.id;
                return Err(format!(
                    "{id}: output {p} VC {vc} is owned by input {ip} VC {ivc}, which does not hold it"
                ));
            }
        }
        for slot in 0..self.in_ports() * self.vcs() {
            let state = self.in_vc(slot);
            let Some(vc) = state.out_vc else {
                continue;
            };
            let (ip, ivc) = (
                PortIndex::new(slot / self.vcs()),
                VcIndex::new(slot % self.vcs()),
            );
            let named = state.route.and_then(|r| owner(r.port, vc));
            if named != Some((ip, ivc)) {
                let id = self.id;
                return Err(format!(
                    "{id}: input {ip} VC {ivc} holds output VC {vc}, which names {named:?} as its owner"
                ));
            }
        }
        Ok(())
    }

    /// Recomputes every summary — the FILLED and CLAIMED slot sets,
    /// `occupied_ports` and `creditless_ports` — from the state it
    /// summarizes, and names the first one that disagrees; also that no
    /// per-step set (FRESH, VA_NOW, the request sets) outlived its step. A
    /// stale summary hides work from a phase that pre-filters on it, so
    /// `step` and `receive_credit` assert this in debug builds;
    /// allocation-free unless it fails.
    pub(crate) fn check_summaries(&self) -> Result<(), String> {
        let id = self.id;
        for slot in 0..self.in_ports() * self.vcs() {
            let (p, vc) = (slot / self.vcs(), slot % self.vcs());
            let sets = &self.sets;
            if sets.get(SlotSets::FILLED, slot) == self.bank.is_empty(slot) {
                return Err(format!("{id}: stale FILLED bit of input {p} VC {vc}"));
            }
            if sets.get(SlotSets::CLAIMED, slot) != (self.bank.tag(slot) != 0) {
                return Err(format!("{id}: stale CLAIMED bit of input {p} VC {vc}"));
            }
            if sets.get(SlotSets::FRESH, slot) || sets.get(SlotSets::VA_NOW, slot) {
                return Err(format!(
                    "{id}: a FRESH or VA_NOW bit of input {p} VC {vc} outlived its step"
                ));
            }
        }
        for p in 0..self.in_ports() {
            let buffered =
                (p * self.vcs()..(p + 1) * self.vcs()).any(|slot| !self.bank.is_empty(slot));
            if self.occupied_ports.get(p) != buffered {
                return Err(format!("{id}: stale occupied_ports bit of input {p}"));
            }
        }
        for p in 0..self.out_ports() {
            let port = &self.ports[p].output;
            let creditless = (0..usize::from(port.subs))
                .any(|sub| self.credits_at_sub(PortIndex::new(p), sub) == 0);
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
            self.stats.header_traversals += 1;
        }
        self.stats.flit_traversals += 1;
        if let Some(p) = self.observed.as_deref_mut() {
            p.traversals[in_port.index()] += 1;
        }
        self.mark_connection(in_port, route.port);

        let lookahead = (route.port.index() >= self.concentration).then(|| {
            let slot = self.out_slot(route.port, 0, out_vc);
            if is_head {
                let channel = self.sub_slot(route.port, route.hops as usize - 1);
                let far = &mut self.far_routers[channel];
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
        let va_cycle = self.va_granted_at.get(slot).copied().unwrap_or(u64::MAX);
        if kind.is_tail() {
            // A buffered flit cleared any pass-through mark on its way in.
            debug_assert!(!state.pass_through);
            self.free_in_vc(slot);
            self.release_out_vc(route.port, out_vc);
        }
        if reuse {
            self.consume_credit(route.port, route.hops as usize - 1, out_vc);
            self.stats.pc_reuses += 1;
            if kind.is_head() {
                self.stats.pc_header_reuses += 1;
            }
        }
        if self.bank.is_empty(slot) {
            self.sets.assign(SlotSets::FILLED, slot, false);
            let vcs = self.vcs();
            let filled = self.sets.range(in_port.index() * vcs, vcs, |s, w| {
                s.word(SlotSets::FILLED, w)
            });
            self.occupied_ports.assign(in_port.index(), filled != 0);
        }
        if let Some(p) = self.observed.as_deref_mut() {
            // The flit was written into the buffer the cycle before it
            // became ready (`FifoBank::push(slot, r, cycle + 1)`).
            let arrival = ready_at - 1;
            // Inclusive per-hop router delay: 3 baseline / 2 reuse under no
            // contention (paper Fig. 6), more under contention.
            p.stages.record(PipelineStage::St, cycle - arrival + 1);
            p.stages.record(PipelineStage::Bw, cycle - arrival);
            if kind.is_head() {
                // Reuse-path headers get VA the traversal cycle itself;
                // baseline-path headers were granted at `va_cycle`.
                let va_at = if va_cycle == u64::MAX {
                    cycle
                } else {
                    va_cycle
                };
                p.stages.record(PipelineStage::Va, va_at - arrival);
            }
            if reuse {
                p.pc_hits[in_port.index()] += 1;
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
                p.stages
                    .record(PipelineStage::Sa, grant.saturating_sub(sa_from));
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
        self.sets.end_step();
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
            self.occupied_ports.set(in_port.index());
            let vc = self.pool.get(r).vc;
            let slot = self.slot(in_port, vc);
            // An express stream that stalls into the buffer continues
            // hop-by-hop; its pass-through claim becomes an ordinary
            // buffered packet claim.
            let tag = self.bank.tag(slot);
            if tag & InVc::PASS_THROUGH != 0 {
                self.write_tag(slot, tag & !InVc::PASS_THROUGH);
            }
            // Pushed into an empty buffer, the flit is the VC's head, and it
            // is not ready before the next cycle.
            if !self.sets.get(SlotSets::FILLED, slot) {
                self.sets.assign(SlotSets::FILLED, slot, true);
                self.sets.assign(SlotSets::FRESH, slot, true);
            }
            self.bank
                .push(slot, r, cycle + 1)
                .expect("upstream credits bound buffer occupancy");
        }
        debug_assert_eq!(self.arrivals.len(), arrivals);
        self.arrivals.clear();
    }

    /// VC allocation for ready headers (separable, per output VC,
    /// round-robin across requesters); the winning header's VC choice is
    /// delegated to [`SchemeHooks::allocate_out_vc`].
    fn allocate_vcs<H: SchemeHooks>(&mut self, hooks: &mut H, cycle: u64) {
        let vcs = self.vcs();
        // Gather requests grouped by output port: every filled, unclaimed,
        // not fresh VC whose head is a header, in ascending slot order.
        let mut pending = Mask64::EMPTY;
        for w in 0..self.sets.words() {
            let mut requesters = self.sets.va_word(w);
            while requesters != 0 {
                let slot = w * 64 + requesters.trailing_zeros() as usize;
                requesters &= requesters - 1;
                debug_assert_eq!(self.in_vc(slot), InVc::FREE, "stale CLAIMED bit");
                debug_assert!(
                    self.bank.head_ready(slot, cycle).is_some(),
                    "stale slot set"
                );
                let r = self.bank.head_ref(slot).expect("a filled VC has a head");
                let head = self.pool.get(r);
                if head.kind.is_head() {
                    let out_port = head.route.port.index();
                    self.ports[out_port].output.va_req.set(slot);
                    pending.set(out_port);
                }
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
                        .head_ref(slot)
                        .expect("a requester has a ready head"),
                );
                if let Some((out_vc, express)) = hooks.allocate_out_vc(self, &flit, (in_port, vc)) {
                    let state = InVc {
                        route: Some(flit.route),
                        out_vc: Some(out_vc),
                        express,
                        ..self.in_vc(slot)
                    };
                    self.set_in_vc(slot, state);
                    self.sets.assign(SlotSets::VA_NOW, slot, true);
                    self.stats.va_grants += 1;
                    if let Some(p) = self.observed.as_deref_mut() {
                        self.va_granted_at[slot] = cycle;
                        p.va_grants[in_port.index()] += 1;
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
        // Input-first stage: one winning VC per input port. Only occupied
        // ports are visited; within one, a VC requests when it is filled,
        // claimed (its packet holds a route and an output VC) and not fresh
        // (its head is ready), the scheme does not skip it and the output VC
        // has downstream credit. A port with no request makes no grant and
        // moves no arbiter.
        let (vcs, mut pending) = (self.vcs(), Mask64::EMPTY);
        for in_port in self.occupied_ports {
            let in_port_i = PortIndex::new(in_port);
            let first = in_port * vcs;
            let mut ready = self.sets.range(first, vcs, SlotSets::sa_word);
            if ready == 0 {
                continue;
            }
            let granted = self
                .sets
                .range(first, vcs, |s, w| s.word(SlotSets::VA_NOW, w));
            let mut nonspec = Mask64::EMPTY;
            let mut spec = Mask64::EMPTY;
            while ready != 0 {
                let vc = ready.trailing_zeros() as usize;
                ready &= ready - 1;
                let slot = first + vc;
                debug_assert!(
                    self.bank.head_ready(slot, cycle).is_some(),
                    "stale slot set"
                );
                let state = self.in_vc(slot);
                let (Some(route), Some(out_vc)) = (state.route, state.out_vc) else {
                    unreachable!("a claimed VC holds a route and an output VC");
                };
                // A buffered flit cleared any pass-through mark.
                debug_assert!(!state.pass_through);
                if hooks.sa_skip(in_port_i, VcIndex::new(vc), route) {
                    continue;
                }
                let sub = route.hops as usize - 1;
                if self.credits_available(route.port, sub, out_vc) == 0 {
                    continue;
                }
                if granted >> vc & 1 != 0 {
                    spec.set(vc);
                } else {
                    nonspec.set(vc);
                }
            }
            let speculative = !nonspec.any();
            let requests = if speculative { spec } else { nonspec };
            if !requests.any() {
                continue;
            }
            let port = &mut self.ports[in_port].input;
            if let Some(vc) = port.arb.grant(&requests) {
                port.sa_winner = VcIndex::new(vc);
                let route = self.in_vc(first + vc).route;
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
            let state = self.in_vc(in_port * vcs + vc.index());
            let route = state.route.expect("winner has route");
            let out_vc = state.out_vc.expect("winner has output VC");
            let in_port = PortIndex::new(in_port);
            self.consume_credit(route.port, route.hops as usize - 1, out_vc);
            self.ports[out_port].output.st_grant = (in_port, vc);
            self.st_ports.set(out_port);
            self.stats.sa_grants += 1;
            if let Some(p) = self.observed.as_deref_mut() {
                p.sa_grants[in_port.index()] += 1;
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

    /// The scheme state, for a factory that configures it after construction.
    pub(crate) fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
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

    fn credits(&self, out_port: PortIndex, sub: u8, vc: VcIndex) -> Option<u32> {
        Some(self.kernel.credits_held(out_port, usize::from(sub), vc))
    }

    fn flits_on(&self, in_port: PortIndex, vc: VcIndex) -> Option<usize> {
        Some(self.kernel.flits_on(in_port, vc))
    }

    fn audit(&self) -> Result<(), String> {
        self.kernel.check_ownership()
    }

    fn stats(&self) -> RouterStats {
        self.kernel.stats
    }

    fn observation(&self) -> Option<RouterObservation> {
        self.kernel.observed.as_deref().cloned()
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

    #[test]
    fn ownership_audit_catches_a_planted_leak() {
        let topo: SharedTopology = Arc::new(Mesh::new(3, 3, 1));
        let pool = Arc::new(noc_base::FlitPool::new(16, 1));
        let mut k = PipelineKernel::new(RouterId::new(4), topo, NetworkConfig::paper(), pool);
        let (east, vc) = (PortIndex::new(1), VcIndex::new(2));
        let owner = (PortIndex::new(0), VcIndex::new(3));
        // A consistent claim: both sides name each other.
        k.claim_out_vc(east, vc, owner);
        k.claim_input_vc(owner.0, owner.1, RouteInfo::new(east), vc);
        k.check_ownership().unwrap();
        // The input VC lets go, the output VC keeps its owner: a leak.
        k.release_input_vc(owner.0, owner.1);
        let err = k.check_ownership().unwrap_err();
        assert!(err.contains("does not hold it"), "{err}");
        // The reverse: an input VC holding an output VC that names no owner.
        k.release_out_vc(east, vc);
        k.check_ownership().unwrap();
        k.claim_input_vc(owner.0, owner.1, RouteInfo::new(east), vc);
        let err = k.check_ownership().unwrap_err();
        assert!(err.contains("holds output VC"), "{err}");
    }

    #[test]
    fn summary_audit_catches_a_planted_stale_bit() {
        // A stale slot bit hides a VC from the allocators (or offers them a
        // VC with nothing to send), and no golden shows it at once: the
        // audit after every debug step must name each one.
        let topo: SharedTopology = Arc::new(Mesh::new(3, 3, 1));
        let pool = Arc::new(noc_base::FlitPool::new(16, 1));
        let mut k = PipelineKernel::new(RouterId::new(4), topo, NetworkConfig::paper(), pool);
        let (port, vc) = (PortIndex::new(2), VcIndex::new(1));
        let slot = k.slot(port, vc);
        k.claim_input_vc(port, vc, RouteInfo::new(PortIndex::new(1)), VcIndex::new(0));
        k.check_summaries().unwrap();
        for (set, name) in [
            (SlotSets::FILLED, "FILLED"),
            (SlotSets::CLAIMED, "CLAIMED"),
            (SlotSets::FRESH, "FRESH"),
        ] {
            let planted = !k.sets.get(set, slot);
            k.sets.assign(set, slot, planted);
            let err = k.check_summaries().unwrap_err();
            assert!(err.contains(name) && err.contains("input 2 VC 1"), "{err}");
            k.sets.assign(set, slot, !planted);
            k.check_summaries().unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every set of a `SlotSets` is the plain bitset it stands for, inline
        /// (at most 64 slots) and in the heap block, and a port's range is
        /// its slots' bits even where it straddles two words.
        #[test]
        fn slot_sets_match_a_bool_model(
            vcs in 1usize..=64,
            ports in 1usize..=8,
            writes in proptest::collection::vec((0usize..4, any::<u16>(), any::<bool>()), 0..80),
        ) {
            let slots = vcs * ports;
            let mut sets = SlotSets::new(slots);
            let mut model = vec![[false; SlotSets::SETS]; slots];
            for (set, slot, value) in writes {
                let slot = usize::from(slot) % slots;
                sets.assign(set, slot, value);
                model[slot][set] = value;
            }
            let sa = |b: &[bool; SlotSets::SETS]| {
                b[SlotSets::FILLED] && b[SlotSets::CLAIMED] && !b[SlotSets::FRESH]
            };
            let va = |b: &[bool; SlotSets::SETS]| {
                b[SlotSets::FILLED] && !b[SlotSets::CLAIMED] && !b[SlotSets::FRESH]
            };
            for (slot, bits) in model.iter().enumerate() {
                for (set, &bit) in bits.iter().enumerate() {
                    prop_assert_eq!(sets.get(set, slot), bit);
                }
                prop_assert_eq!(sets.sa_word(slot / 64) >> (slot % 64) & 1 != 0, sa(bits));
                prop_assert_eq!(sets.va_word(slot / 64) >> (slot % 64) & 1 != 0, va(bits));
            }
            for p in 0..ports {
                let expected = (0..vcs)
                    .filter(|&vc| sa(&model[p * vcs + vc]))
                    .fold(0u64, |acc, vc| acc | 1 << vc);
                prop_assert_eq!(sets.range(p * vcs, vcs, SlotSets::sa_word), expected);
            }
            sets.end_step();
            for (slot, bits) in model.iter().enumerate() {
                prop_assert!(!sets.get(SlotSets::FRESH, slot) && !sets.get(SlotSets::VA_NOW, slot));
                prop_assert_eq!(sets.get(SlotSets::FILLED, slot), bits[SlotSets::FILLED]);
                prop_assert_eq!(sets.get(SlotSets::CLAIMED, slot), bits[SlotSets::CLAIMED]);
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
        let mut kernel = PipelineKernel::new(id, topo.clone(), config, pool);
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
