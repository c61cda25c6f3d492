//! The pseudo-circuit scheme as hooks over the shared pipeline kernel
//! (also the baseline router when the scheme is [`Scheme::baseline`]).
//!
//! The speculative two-stage pipeline itself — BW, VA∥SA, ST, the separable
//! round-robin allocators, credit bookkeeping and observability plumbing —
//! lives in [`crate::pipeline`]; this module plugs the paper's scheme into
//! its [`SchemeHooks`] extension points. Per-hop router delay: 3 cycles
//! baseline, plus one cycle of link traversal. With a matching
//! **pseudo-circuit**, the flit skips VA∥SA (the route comparison fits
//! inside ST, §III.B): BW at `t`, ST at `t + 1` — 2 cycles. With **buffer
//! bypassing** it also skips BW: ST at `t` — 1 cycle.
//!
//! # Scheme mechanics implemented here
//!
//! - every switch-arbitration grant (re)establishes the pseudo-circuit for
//!   its connection, terminating circuits that conflict on either port;
//!   SA always has priority over pseudo-circuit reuse (starvation freedom,
//!   §III.C);
//! - a circuit whose output port has no downstream credit is terminated
//!   immediately (buffer-overflow protection, §III.C);
//! - headers reusing a circuit still acquire an output VC the same cycle
//!   (VA is independent of SA, §III.B); on VA failure they fall back to the
//!   full pipeline with no added penalty;
//! - speculation restores the most recently terminated circuit of an idle
//!   output port, guarded by the per-output history register (§IV.A);
//! - the bypass latch forwards an arriving flit straight to the crossbar
//!   when its VC buffer is empty and the circuit matches (§IV.B); bypassed
//!   flits are charged no buffer read/write energy.

use crate::config::Scheme;
use crate::datapath::CircuitDatapath;
use crate::pipeline::{KernelRouter, PipelineKernel, SchemeHooks};
use crate::pseudo::PseudoCircuitUnit;
use noc_base::{Flit, FlitPool, FlitRef, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_sim::{
    NetworkConfig, PipelineStage, RouterBuildContext, RouterFactory, RouterModel, RouterOutputs,
    TraceEventKind,
};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// The pseudo-circuit scheme's [`SchemeHooks`]: the shared circuit datapath
/// gated by the [`Scheme`] switches, plus the paper's two §IV extensions
/// (speculation, the bypass latch).
pub struct PcHooks {
    scheme: Scheme,
    circuits: CircuitDatapath,
}

/// The pseudo-circuit router (also the baseline router when the scheme is
/// [`Scheme::baseline`]): the shared kernel running [`PcHooks`].
pub type PcRouter = KernelRouter<PcHooks>;

impl PcHooks {
    /// Builds a router running `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is inconsistent (see [`Scheme::validate`]).
    pub fn router(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        scheme: Scheme,
        pool: Arc<FlitPool>,
    ) -> PcRouter {
        scheme.validate().unwrap_or_else(|e| panic!("{e}"));
        // The kernel first: its width check names the router.
        let kernel = PipelineKernel::new(id, topo, config, true, pool);
        let hooks = PcHooks {
            scheme,
            circuits: CircuitDatapath::new(id, kernel.topo.as_ref(), &config),
        };
        KernelRouter::new(kernel, hooks)
    }

    /// The pseudo-circuit unit (exposed for white-box tests).
    pub fn pseudo_unit(&self) -> &PseudoCircuitUnit {
        &self.circuits.pcu
    }

    /// Attempts to forward an arriving flit through the bypass latch
    /// (§IV.B). Returns whether the flit was consumed. `r` is the arriving
    /// flit's pool slot; its body is read once (after the cheap port-state
    /// early-outs) and a consumed flit is forwarded by reference, never
    /// re-stored.
    fn try_bypass(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        if !self.scheme.buffer_bypass || k.in_busy(in_port) {
            return false;
        }
        let Some(pc) = self.circuits.pcu.live(in_port) else {
            return false;
        };
        if k.out_busy(pc.out_port) {
            return false;
        }
        let flit = *k.pool().get(r);
        let (vc, kind) = (flit.vc, flit.kind);
        if pc.in_vc != vc || !k.input_empty(in_port, vc) {
            return false;
        }
        let Some(out_vc) = self.circuits.admit(k, in_port, pc, &flit) else {
            return false;
        };
        let pc_route = pc.route();
        if kind.is_tail() {
            // The packet ends inside the latch: nothing of it stays behind.
            k.release_input_vc(in_port, vc);
            k.release_out_vc(pc_route.port, out_vc);
        }
        k.consume_credit(pc_route.port, pc.hops as usize - 1, out_vc);
        k.stats.pc_reuses += 1;
        k.stats.buffer_bypasses += 1;
        if kind.is_head() {
            k.stats.pc_header_reuses += 1;
            k.stats.pc_header_bypasses += 1;
        }
        if let Some(p) = k.counters.as_deref_mut() {
            p.on_pc_hit(in_port, true);
            // Arrival, VA (headers) and traversal all happen this cycle:
            // the 1-cycle hop of paper Fig. 6. Bypassed flits never reside
            // in the buffer and skip SA, so BW/SA record no sample.
            p.on_stage(PipelineStage::St, 1);
            if kind.is_head() {
                p.on_stage(PipelineStage::Va, 0);
            }
        }
        k.trace(cycle, TraceEventKind::BypassHit, in_port, pc_route.port);
        // The write-through latch never occupies a buffer slot: the upstream
        // credit returns immediately.
        out.credits.push((in_port, vc));
        k.send_flit(r, in_port, pc_route, out_vc, 0, out);
        true
    }

    /// The input port whose terminated circuit phase G would restore on
    /// the restorable output `port` this cycle (§IV.A): the one its history
    /// register names, when the circuit's drop position has downstream
    /// credit.
    #[inline(always)]
    fn credited_history(&self, k: &PipelineKernel, port: PortIndex) -> Option<PortIndex> {
        let pcu = &self.circuits.pcu;
        let h = pcu.history(port)?;
        (k.credits_at_sub(port, pcu.registers(h).hops as usize - 1) > 0).then_some(h)
    }

    /// Phase G: pseudo-circuit speculation — restore the most recently
    /// terminated circuit of every idle output port with downstream credit
    /// (§IV.A).
    fn speculate(&mut self, k: &mut PipelineKernel, cycle: u64) {
        // A restore takes only the visited port out of the mask: the
        // restored input's stale registers pointed at no other output.
        for out_port in self.circuits.pcu.restorable_mask() {
            let port = PortIndex::new(out_port);
            let Some(h) = self.credited_history(k, port) else {
                continue;
            };
            let restored = self.circuits.pcu.try_restore(port);
            debug_assert!(restored, "the port was in the restorable mask");
            debug_assert!(self.circuits.pcu.check_invariants().is_ok());
            k.stats.pc_speculative_restores += 1;
            if let Some(p) = k.counters.as_deref_mut() {
                p.on_pc_restored(port);
            }
            k.trace(cycle, TraceEventKind::Restore, h, port);
        }
    }
}

// `#[inline]` throughout, for the reason given in `crate::datapath`.
impl SchemeHooks for PcHooks {
    #[inline]
    fn begin_cycle(&mut self, k: &mut PipelineKernel, cycle: u64) {
        if self.scheme.pseudo_circuit {
            self.circuits.terminate_creditless(k, cycle);
        }
    }

    #[inline]
    fn drain_reuse(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        if self.scheme.pseudo_circuit {
            self.circuits.reuse(k, cycle, out);
        }
    }

    #[inline]
    fn try_arrival_intercept(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        self.try_bypass(k, cycle, in_port, r, out)
    }

    #[inline]
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)> {
        self.circuits
            .allocate_vc(k, flit.route, flit.class, flit.dst, owner, false)
            .map(|vc| (vc, 0))
    }

    #[inline]
    fn sa_skip(&self, in_port: PortIndex, vc: VcIndex, route: RouteInfo) -> bool {
        self.scheme.pseudo_circuit && self.circuits.covers(in_port, vc, route)
    }

    /// Each grant (re)establishes the pseudo-circuit of its connection.
    #[inline]
    fn on_sa_grant(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        if self.scheme.pseudo_circuit {
            self.circuits.establish(k, cycle, in_port, vc, route);
        }
    }

    #[inline]
    fn end_cycle(&mut self, k: &mut PipelineKernel, cycle: u64) {
        if self.scheme.speculation {
            self.speculate(k, cycle);
        }
    }

    /// No live circuit that phase A would terminate for credit exhaustion,
    /// and no history register that phase G would speculatively restore.
    #[inline(always)]
    fn is_idle(&self, k: &PipelineKernel) -> bool {
        (!self.scheme.pseudo_circuit || self.circuits.is_idle(k))
            && (!self.scheme.speculation
                || self
                    .circuits
                    .pcu
                    .restorable_mask()
                    .into_iter()
                    .all(|p| self.credited_history(k, PortIndex::new(p)).is_none()))
    }
}

/// Builds [`PcRouter`]s with a fixed scheme.
#[derive(Copy, Clone, Debug, Default)]
pub struct PcRouterFactory {
    /// The scheme every router in the network runs.
    pub scheme: Scheme,
}

impl PcRouterFactory {
    /// Creates a factory for `scheme`.
    pub fn new(scheme: Scheme) -> Self {
        Self { scheme }
    }
}

impl RouterFactory for PcRouterFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        PcHooks::router(
            ctx.id,
            ctx.topology.clone(),
            *ctx.config,
            self.scheme,
            ctx.pool.clone(),
        )
        .boxed(ctx.metrics)
    }
}

#[cfg(test)]
mod tests {
    //! Drives a [`PcRouter`] the way the engine does — flits under upstream
    //! credit, credits only for flits it sent, one step per cycle — so the
    //! kernel's port-summary masks can be checked against the state they
    //! summarize after every call (DESIGN.md §14).

    use super::*;
    use noc_base::{
        Credit, Mask64, NodeId, PacketClass, PacketDescriptor, PacketId, RouteMode, RoutingPolicy,
        VaPolicy, VcPartition,
    };
    use noc_topology::{Mecs, Mesh};
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Call {
        /// Start a packet on, or continue the packet of, an input VC.
        Flit {
            port: u8,
            vc: u8,
            dst: u16,
            len: u8,
        },
        /// Return the credit of one flit the router sent earlier.
        Credit {
            pick: u16,
        },
        Step,
    }

    fn call_strategy() -> impl Strategy<Value = Call> {
        // Two flit arms and two step arms to one credit arm: credits kept
        // scarce enough that sub-channels run dry.
        prop_oneof![
            (any::<u8>(), any::<u8>(), any::<u16>(), 1u8..4)
                .prop_map(|(port, vc, dst, len)| Call::Flit { port, vc, dst, len }),
            (any::<u8>(), any::<u8>(), any::<u16>(), 1u8..4)
                .prop_map(|(port, vc, dst, len)| Call::Flit { port, vc, dst, len }),
            any::<u16>().prop_map(|pick| Call::Credit { pick }),
            any::<u16>().prop_map(|_| Call::Step),
            any::<u16>().prop_map(|_| Call::Step),
        ]
    }

    struct Harness {
        router: PcRouter,
        topo: SharedTopology,
        id: RouterId,
        vcs: usize,
        /// The deadlock classes the input VCs are split into; a packet
        /// arrives on a VC of its own class, as an interface would send it.
        routing: RoutingPolicy,
        partition: VcPartition,
        /// Free slots of each input VC's buffer, as its feeder counts them.
        upstream: Vec<u32>,
        /// The packet each input VC is in the middle of, and its next flit.
        open: Vec<Option<(PacketDescriptor, u16)>>,
        /// Input ports already fed this cycle (a link carries one flit).
        fed: Mask64,
        /// `(out_port, sub, vc)` of every sent flit not yet credited.
        downstream: Vec<(PortIndex, u8, VcIndex)>,
        cycle: u64,
        packets: u64,
    }

    impl Harness {
        fn new(topo: SharedTopology, id: RouterId, config: NetworkConfig) -> Self {
            let vcs = config.vcs_per_port as usize;
            let slots = topo.in_ports(id) * vcs;
            let pool = Arc::new(FlitPool::new(slots * config.buffer_depth as usize + 64, 1));
            Self {
                router: PcHooks::router(id, topo.clone(), config, Scheme::pseudo_ps_bb(), pool),
                routing: config.routing,
                partition: config.partition_for(topo.as_ref()),
                topo,
                id,
                vcs,
                upstream: vec![config.buffer_depth; slots],
                open: vec![None; slots],
                fed: Mask64::EMPTY,
                downstream: Vec::new(),
                cycle: 0,
                packets: 0,
            }
        }

        fn apply(&mut self, call: &Call) {
            match *call {
                Call::Flit { port, vc, dst, len } => {
                    let port = port as usize % self.topo.in_ports(self.id);
                    let slot = port * self.vcs + vc as usize % self.vcs;
                    if self.fed.get(port) || self.upstream[slot] == 0 {
                        return;
                    }
                    let (desc, seq) = self.open[slot].take().unwrap_or_else(|| {
                        self.packets += 1;
                        let desc = PacketDescriptor {
                            id: PacketId::new(self.packets),
                            src: NodeId::new(0),
                            dst: NodeId::new(dst as usize % self.topo.num_nodes()),
                            len: u16::from(len),
                            class: PacketClass::Data,
                            created_at: self.cycle,
                        };
                        (desc, 0)
                    });
                    let mut flit = desc.flit(seq);
                    flit.vc = VcIndex::new(slot % self.vcs);
                    flit.class = self.partition.class_of_vc(flit.vc);
                    flit.mode = [RouteMode::XY, RouteMode::YX][usize::from(flit.class)];
                    debug_assert_eq!(self.routing.class_of(flit.mode), flit.class);
                    flit.route = self.topo.route(self.id, flit.dst, flit.mode);
                    if seq + 1 < desc.len {
                        self.open[slot] = Some((desc, seq + 1));
                    }
                    self.upstream[slot] -= 1;
                    self.fed.set(port);
                    let r = self.router.pool().alloc_serial(flit);
                    self.router.receive_flit(PortIndex::new(port), r);
                }
                Call::Credit { pick } => {
                    if self.downstream.is_empty() {
                        return;
                    }
                    let at = pick as usize % self.downstream.len();
                    let (port, sub, vc) = self.downstream.swap_remove(at);
                    self.router.receive_credit(port, Credit { vc, sub });
                }
                Call::Step => {
                    let mut out = RouterOutputs::default();
                    self.router.step(self.cycle, &mut out);
                    for sent in out.flits {
                        let vc = self.router.pool().get(sent.flit).vc;
                        self.downstream.push((sent.out_port, sent.hops - 1, vc));
                        self.router.pool().free(sent.flit);
                    }
                    for (in_port, vc) in out.credits {
                        self.upstream[in_port.index() * self.vcs + vc.index()] += 1;
                    }
                    self.fed = Mask64::EMPTY;
                    self.cycle += 1;
                }
            }
        }

        fn check(&self) -> Result<(), String> {
            self.router.kernel().check_summaries()?;
            self.router.hooks().pseudo_unit().check_invariants()
        }
    }

    fn check_summaries_hold(
        topo: SharedTopology,
        id: RouterId,
        routing: RoutingPolicy,
        va_policy: VaPolicy,
        calls: &[Call],
    ) -> Result<(), TestCaseError> {
        // Two-flit buffers on two VCs per deadlock class: a handful of
        // flits exhausts a sub-channel's credits, so circuits terminate and
        // restore often.
        let config = NetworkConfig {
            vcs_per_port: 2 * routing.num_classes(),
            buffer_depth: 2,
            routing,
            va_policy,
        };
        let mut harness = Harness::new(topo, id, config);
        for (i, call) in calls.iter().enumerate() {
            harness.apply(call);
            if let Err(e) = harness.check() {
                prop_assert!(false, "after call {i} ({call:?}): {e}");
            }
        }
        Ok(())
    }

    fn mesh() -> (SharedTopology, RouterId) {
        // Center router of a 3x3 mesh: every port wired, one sub each.
        (Arc::new(Mesh::new(3, 3, 1)), RouterId::new(4))
    }

    fn mecs() -> (SharedTopology, RouterId) {
        // Router (1, 1) of a 4x4 MECS: its east and south channels have two
        // drop positions, its west and north one — several subs per port,
        // and more input ports than output ports.
        (Arc::new(Mecs::new(4, 4, 1)), RouterId::new(5))
    }

    fn cmesh() -> (SharedTopology, RouterId) {
        // Router (1, 1) of the paper's 4x4 concentrated mesh: four local
        // ports beside the four directions, the widest router the
        // benchmark's `cmp_cmesh` workload steps.
        (Arc::new(Mesh::new(4, 4, 4)), RouterId::new(5))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn port_summaries_hold_on_a_mesh_router(
            dynamic in any::<bool>(),
            calls in prop::collection::vec(call_strategy(), 1..400),
        ) {
            let (topo, id) = mesh();
            let va = if dynamic { VaPolicy::Dynamic } else { VaPolicy::Static };
            check_summaries_hold(topo, id, RoutingPolicy::Xy, va, &calls)?;
        }

        #[test]
        fn port_summaries_hold_on_a_mecs_multidrop_router(
            dynamic in any::<bool>(),
            calls in prop::collection::vec(call_strategy(), 1..400),
        ) {
            let (topo, id) = mecs();
            let va = if dynamic { VaPolicy::Dynamic } else { VaPolicy::Static };
            check_summaries_hold(topo, id, RoutingPolicy::Xy, va, &calls)?;
        }

        /// The `cmp_cmesh` configuration: eight ports, O1TURN's two VC classes
        /// (XY packets on the low VCs, YX on the high ones), dynamic VA choosing
        /// among a class's free output VCs.
        #[test]
        fn port_summaries_hold_on_a_cmesh_router_under_o1turn(
            calls in prop::collection::vec(call_strategy(), 1..400),
        ) {
            let (topo, id) = cmesh();
            check_summaries_hold(
                topo,
                id,
                RoutingPolicy::O1Turn,
                VaPolicy::Dynamic,
                &calls,
            )?;
        }
    }
}
