//! The pseudo-circuit scheme as hooks over the shared pipeline kernel
//! (also the baseline router when the scheme is [`Scheme::baseline`]).
//!
//! The speculative two-stage pipeline itself — BW, VA∥SA, ST, the separable
//! round-robin allocators, credit bookkeeping and observability plumbing —
//! lives in [`noc_sim::pipeline`]; this module plugs the paper's scheme into
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
use crate::pseudo::PseudoCircuitUnit;
use noc_base::{Flit, FlitPool, FlitRef, Mask64, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_sim::{
    KernelRouter, NetworkConfig, PipelineKernel, PipelineStage, RouterBuildContext, RouterFactory,
    RouterModel, RouterOutputs, SchemeHooks, TraceEventKind,
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

    /// The scheme this router runs.
    pub fn scheme(&self) -> Scheme {
        self.scheme
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
    /// `port` this cycle (§IV.A): the port is idle, its history register
    /// names a stale circuit still pointing at it, and the circuit's drop
    /// position has downstream credit.
    #[inline(always)]
    fn restorable(&self, k: &PipelineKernel, port: PortIndex) -> Option<PortIndex> {
        let pcu = &self.circuits.pcu;
        if pcu.holder(port).is_some() {
            return None;
        }
        let h = pcu.history(port)?;
        let reg = pcu.registers(h);
        (!reg.valid && reg.out_port == port && k.credits_at_sub(port, reg.hops as usize - 1) > 0)
            .then_some(h)
    }

    /// The output ports [`restorable`](Self::restorable) can name a circuit
    /// on: a history entry and no holder.
    #[inline(always)]
    fn restore_candidates(&self) -> Mask64 {
        self.circuits.pcu.history_mask() & !self.circuits.pcu.held_mask()
    }

    /// Phase G: pseudo-circuit speculation — restore the most recently
    /// terminated circuit of every idle output port with downstream credit
    /// (§IV.A).
    fn speculate(&mut self, k: &mut PipelineKernel, cycle: u64) {
        // A restore takes only the visited port out of the candidates.
        for out_port in self.restore_candidates() {
            let port = PortIndex::new(out_port);
            let Some(h) = self.restorable(k, port) else {
                continue;
            };
            let restored = self.circuits.pcu.try_restore(port);
            debug_assert!(restored, "preconditions checked above");
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
        self.circuits.mirror_stats(k);
    }

    /// No live circuit that phase A would terminate for credit exhaustion,
    /// and no history register that phase G would speculatively restore.
    #[inline(always)]
    fn is_idle(&self, k: &PipelineKernel) -> bool {
        (!self.scheme.pseudo_circuit || self.circuits.is_idle(k))
            && (!self.scheme.speculation
                || self
                    .restore_candidates()
                    .into_iter()
                    .all(|p| self.restorable(k, PortIndex::new(p)).is_none()))
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
