//! The pseudo-circuit scheme as hooks over the shared pipeline kernel
//! (also the baseline router when the scheme is [`Scheme::baseline`], and
//! the profiled hybrid when a [`HotFlows`] gate rides along): the one set
//! of hooks that holds crossbar connections.
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
//!   flits are charged no buffer read/write energy;
//! - under the hybrid's gate ([`crate::hybrid`]) a grant establishes only
//!   for a hot flow after the profile window; a cold grant after it tears
//!   down the circuits it conflicts with and establishes none.

use crate::config::Scheme;
use crate::hybrid::HotFlows;
use crate::pipeline::{KernelRouter, PipelineKernel, SchemeHooks};
use crate::pseudo::{PcRegisters, PseudoCircuitUnit, Termination};
use noc_base::{
    Flit, FlitPool, FlitRef, PortIndex, RouteInfo, RouterId, VaPolicy, VcIndex, VcPartition,
};
use noc_sim::{NetworkConfig, PipelineStage, RouterOutputs, TraceEventKind};
use noc_sim::{RouterBuildContext, RouterFactory, RouterModel};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// The circuit scheme's [`SchemeHooks`]: the held-circuit datapath gated by
/// the [`Scheme`] switches — establishment, drain, termination (§III) and
/// the paper's two §IV extensions (speculation, the bypass latch) — and,
/// for the profiled hybrid, a hot-flow gate on establishment.
pub struct PcHooks {
    scheme: Scheme,
    /// The VA policy of every header, circuit riders included.
    va_policy: VaPolicy,
    partition: VcPartition,
    pcu: PseudoCircuitUnit,
    /// The profiled hybrid's establishment gate (boxed: a router's bytes
    /// are what a step walks); `None` for the paper's schemes.
    hot: Option<Box<HotFlows>>,
}

/// The pseudo-circuit router — also the baseline ([`Scheme::baseline`]) and,
/// behind [`HybridRouterFactory`](crate::HybridRouterFactory), the profiled
/// hybrid: the shared kernel running [`PcHooks`].
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
        let kernel = PipelineKernel::new(id, topo, config, pool);
        let topo = kernel.topo.as_ref();
        let hooks = PcHooks {
            scheme,
            va_policy: config.va_policy,
            partition: config.partition_for(topo),
            pcu: PseudoCircuitUnit::new(topo.in_ports(id), topo.out_ports(id)),
            hot: None,
        };
        KernelRouter::new(kernel, hooks)
    }

    /// Gates establishment by the hybrid profile `hot` ([`crate::hybrid`]).
    pub(crate) fn gate(&mut self, hot: HotFlows) {
        self.hot = Some(Box::new(hot));
    }

    /// The pseudo-circuit unit (exposed for white-box tests).
    pub fn pseudo_unit(&self) -> &PseudoCircuitUnit {
        &self.pcu
    }

    /// Allocates an output VC for header `flit` (VA). `require_credit` makes
    /// the allocation fail unless the chosen VC has a downstream credit —
    /// used by the reuse/bypass paths that traverse the same cycle.
    #[inline]
    fn allocate_vc(
        &self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
        require_credit: bool,
    ) -> Option<VcIndex> {
        let (port, sub) = (flit.route.port, flit.route.hops as usize - 1);
        let range = self.partition.class_range(flit.class);
        let range = range.start.into()..range.end.into();
        let kr = &*k;
        let credits = |v| kr.credits_available(port, sub, v);
        let usable = |v| kr.out_vc_is_free(port, v) && (!require_credit || credits(v) > 0);
        let chosen = self.va_policy.choose(range, flit.dst, usable, credits)?;
        k.claim_out_vc(port, chosen, owner);
        Some(chosen)
    }

    /// Terminates the live circuit at `in_port` (no-op when none), counting
    /// it in the router statistics and reporting it to the per-port counters
    /// and the tracer.
    fn terminate(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        why: Termination,
    ) {
        let Some(pc) = self.pcu.live(in_port) else {
            return;
        };
        self.pcu.terminate(in_port);
        debug_assert!(self.pcu.check_invariants().is_ok());
        count_termination(k, in_port, why);
        let kind = match why {
            Termination::Conflict => TraceEventKind::TerminateConflict,
            Termination::CreditExhausted => TraceEventKind::TerminateCredit,
        };
        k.trace(cycle, kind, in_port, pc.out_port);
    }

    /// The input port holding `port` through a circuit with no downstream
    /// credit at its drop position — the circuit phase A (`drain_reuse`)
    /// terminates. Only a port with some drop position out of credit
    /// (`creditless_ports()`, almost always empty) can have one.
    #[inline(always)]
    fn creditless_holder(&self, k: &PipelineKernel, port: PortIndex) -> Option<PortIndex> {
        let holder = self.pcu.holder(port)?;
        let sub = self.pcu.registers(holder).hops as usize - 1;
        (k.credits_at_sub(port, sub) == 0).then_some(holder)
    }

    /// Decides whether `flit`, at the head of the circuit's input VC, may
    /// ride the live circuit `pc` of `in_port` this cycle, and on which
    /// output VC. A new packet's header must carry the circuit's route
    /// (§III.B) and win an output VC with a downstream credit — VA runs in
    /// parallel with the comparison — and then claims the input VC; a flit
    /// of a packet already holding the VC must be routed along the circuit
    /// and have a credit on its output VC (port-level exhaustion is phase
    /// A's business). `None` sends the flit down the baseline pipeline at no
    /// penalty.
    #[inline]
    fn admit(
        &self,
        k: &mut PipelineKernel,
        in_port: PortIndex,
        pc: PcRegisters,
        flit: &Flit,
    ) -> Option<VcIndex> {
        let (vc, pc_route) = (pc.in_vc, pc.route());
        if flit.kind.is_head() && k.input_route(in_port, vc).is_none() {
            if flit.route != pc_route {
                return None;
            }
            let out_vc = self.allocate_vc(k, flit, (in_port, vc), true)?;
            k.claim_input_vc(in_port, vc, pc_route, out_vc);
            k.stats.va_grants += 1;
            if let Some(p) = k.observed.as_deref_mut() {
                p.va_grants[in_port.index()] += 1;
            }
            Some(out_vc)
        } else {
            if k.input_route(in_port, vc) != Some(pc_route) {
                return None;
            }
            let out_vc = k
                .input_out_vc(in_port, vc)
                .expect("routed VC has an output VC");
            (k.credits_available(pc.out_port, pc.hops as usize - 1, out_vc) > 0).then_some(out_vc)
        }
    }

    /// (Re)establishes the circuit of a granted connection, terminating the
    /// circuits it conflicts with on either port, and reports all of it.
    #[inline]
    fn establish(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        let outcome = self.pcu.establish(in_port, vc, route.port, route.hops);
        debug_assert!(self.pcu.check_invariants().is_ok());
        for (victim, _) in outcome.terminated.into_iter().flatten() {
            count_termination(k, victim, Termination::Conflict);
        }
        if let Some(p) = k.observed.as_deref_mut() {
            // A refresh of a live connection (possibly on a new VC) is not
            // a creation.
            if outcome.created {
                p.pc_creations[in_port.index()] += 1;
            }
        }
        if k.tracer.is_some() {
            for (victim, victim_out) in outcome.terminated.into_iter().flatten() {
                k.trace(cycle, TraceEventKind::TerminateConflict, victim, victim_out);
            }
            if outcome.created {
                k.trace(cycle, TraceEventKind::Establish, in_port, route.port);
            }
        }
    }

    /// The input port whose terminated circuit phase G would restore on
    /// the restorable output `port` this cycle (§IV.A): the one its history
    /// register names, when the circuit's drop position has downstream
    /// credit.
    #[inline(always)]
    fn credited_history(&self, k: &PipelineKernel, port: PortIndex) -> Option<PortIndex> {
        let h = self.pcu.history(port)?;
        (k.credits_at_sub(port, self.pcu.registers(h).hops as usize - 1) > 0).then_some(h)
    }

    /// Phase G: pseudo-circuit speculation — restore the most recently
    /// terminated circuit of every idle output port with downstream credit
    /// (§IV.A).
    fn speculate(&mut self, k: &mut PipelineKernel, cycle: u64) {
        // A restore takes only the visited port out of the mask: the
        // restored input's stale registers pointed at no other output.
        for out_port in self.pcu.restorable_mask() {
            let port = PortIndex::new(out_port);
            let Some(h) = self.credited_history(k, port) else {
                continue;
            };
            let restored = self.pcu.try_restore(port);
            debug_assert!(restored, "the port was in the restorable mask");
            debug_assert!(self.pcu.check_invariants().is_ok());
            k.stats.pc_speculative_restores += 1;
            if let Some(p) = k.observed.as_deref_mut() {
                p.restores[out_port] += 1;
            }
            k.trace(cycle, TraceEventKind::Restore, h, port);
        }
    }
}

// The per-cycle hooks and the datapath methods they call are `#[inline]`:
// `PipelineKernel::step::<PcHooks>` may land in another codegen unit than
// this module, and without the hint every SA candidate paid a call — 8–13 %
// of a low-load run, measured when the kernel and the hooks still lived in
// other crates. The idle predicate runs after every router step and is a
// visible share of a near-quiescent run, so its pieces (`is_idle`,
// `creditless_holder`, `credited_history`) are `#[inline(always)]`: the
// plain hint still left them 8–20 % slower there.
impl SchemeHooks for PcHooks {
    /// Right after the ST drain, which changes no credit, circuit register or
    /// profile count: the hybrid's freeze; phase A, which terminates the
    /// circuits whose output has no downstream credit at the held drop
    /// position (buffer-overflow protection, §III.C); and phase C, reuse: a
    /// buffered, ready head-of-VC flit that its port's live circuit
    /// [`admit`](PcHooks::admit)s traverses at once, bypassing SA.
    #[inline]
    fn drain_reuse(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        if let Some(hot) = &mut self.hot {
            hot.freeze_at(cycle);
        }
        if !self.scheme.pseudo_circuit {
            return;
        }
        for out_port in k.creditless_ports() {
            if let Some(holder) = self.creditless_holder(k, PortIndex::new(out_port)) {
                self.terminate(k, cycle, holder, Termination::CreditExhausted);
            }
        }
        // Reuse only drains buffered flits, and only through a live circuit.
        // The mask changes under the loop only at the visited port.
        for in_port in k.occupied_ports() {
            let in_port = PortIndex::new(in_port);
            let Some(pc) = self.pcu.live(in_port) else {
                continue;
            };
            if k.in_busy(in_port) || k.out_busy(pc.out_port) {
                continue;
            }
            let Some(&flit) = k.input_head_ready(in_port, pc.in_vc, cycle) else {
                continue;
            };
            if self.admit(k, in_port, pc, &flit).is_some() {
                k.traverse_from_buffer(cycle, in_port, pc.in_vc, true, out);
            }
        }
    }

    /// The bypass latch (§IV.B): forwards an arriving flit whose VC buffer
    /// is empty through the live circuit it matches. `r` is the arriving
    /// flit's pool slot; its body is read once (after the cheap port-state
    /// early-outs) and a consumed flit is forwarded by reference, never
    /// re-stored.
    fn try_arrival_intercept(
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
        let Some(pc) = self.pcu.live(in_port) else {
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
        let Some(out_vc) = self.admit(k, in_port, pc, &flit) else {
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
        if let Some(p) = k.observed.as_deref_mut() {
            p.pc_hits[in_port.index()] += 1;
            p.buffer_bypasses[in_port.index()] += 1;
            // Arrival, VA (headers) and traversal all happen this cycle:
            // the 1-cycle hop of paper Fig. 6. Bypassed flits never reside
            // in the buffer and skip SA, so BW/SA record no sample.
            p.stages.record(PipelineStage::St, 1);
            if kind.is_head() {
                p.stages.record(PipelineStage::Va, 0);
            }
        }
        k.trace(cycle, TraceEventKind::BypassHit, in_port, pc_route.port);
        // The write-through latch never occupies a buffer slot: the upstream
        // credit returns immediately.
        out.credits.push((in_port, vc));
        k.send_flit(r, in_port, pc_route, out_vc, 0, out);
        true
    }

    /// VA for one header; a grant before the hybrid's freeze is also its
    /// profile sample, so a header counts once per hop however long it
    /// waited for its output VC.
    #[inline]
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)> {
        let vc = self.allocate_vc(k, flit, owner, false)?;
        if let Some(hot) = &mut self.hot {
            hot.sample(flit);
        }
        Some((vc, 0))
    }

    /// Flits covered by a live matching circuit bypass SA and drain through
    /// the held connection in `drain_reuse` (§III.B, "the following flits
    /// coming to the same VC can bypass SA ... until the pseudo-circuit is
    /// terminated"). Whether the flit's flow is hot does not matter: the
    /// hybrid's gate is on establishment, not on the drain.
    #[inline]
    fn sa_skip(&self, in_port: PortIndex, vc: VcIndex, route: RouteInfo) -> bool {
        self.scheme.pseudo_circuit
            && self
                .pcu
                .live(in_port)
                .is_some_and(|pc| pc.in_vc == vc && pc.route() == route)
    }

    /// Each grant (re)establishes the pseudo-circuit of its connection. Under
    /// the hybrid's gate a grant does nothing before the freeze, and after
    /// it a grant of a cold flow only tears down the circuits it conflicts
    /// with: SA reconfigured the crossbar, so a circuit holding either side
    /// of the granted connection no longer exists physically — the output's
    /// holder goes first, then the input port's own circuit. The granted
    /// flit is still buffered at the head of its VC (it drains at the next
    /// cycle's ST phase) and was ready this cycle.
    #[inline]
    fn on_sa_grant(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        if !self.scheme.pseudo_circuit {
            return;
        }
        match &self.hot {
            Some(hot) if !hot.frozen => {}
            Some(hot)
                if !k
                    .input_head_ready(in_port, vc, cycle)
                    .is_some_and(|f| hot.is_hot(f)) =>
            {
                if let Some(holder) = self.pcu.holder(route.port) {
                    self.terminate(k, cycle, holder, Termination::Conflict);
                }
                self.terminate(k, cycle, in_port, Termination::Conflict);
            }
            _ => self.establish(k, cycle, in_port, vc, route),
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
    /// A pending hybrid freeze does not block idling: an idle router has no
    /// flits, so freezing now or at its next busy cycle produces the same
    /// counts and the same behaviour.
    #[inline(always)]
    fn is_idle(&self, k: &PipelineKernel) -> bool {
        (!self.scheme.pseudo_circuit
            || k.creditless_ports()
                .into_iter()
                .all(|p| self.creditless_holder(k, PortIndex::new(p)).is_none()))
            && (!self.scheme.speculation
                || self
                    .pcu
                    .restorable_mask()
                    .into_iter()
                    .all(|p| self.credited_history(k, PortIndex::new(p)).is_none()))
    }
}

/// Counts one termination of the circuit at `in_port`, once, where it
/// happens: in the router statistics and, when on, the per-port counters.
#[inline]
fn count_termination(k: &mut PipelineKernel, in_port: PortIndex, why: Termination) {
    match why {
        Termination::Conflict => k.stats.pc_terminations_conflict += 1,
        Termination::CreditExhausted => k.stats.pc_terminations_credit += 1,
    }
    if let Some(p) = k.observed.as_deref_mut() {
        let by_port = match why {
            Termination::Conflict => &mut p.term_conflict,
            Termination::CreditExhausted => &mut p.term_credit,
        };
        by_port[in_port.index()] += 1;
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
    //! summarize, and its output-VC ownership law, after every call
    //! (DESIGN.md §14).

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
            self.router.kernel().check_ownership()?;
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
