//! The held-circuit datapath over the shared pipeline kernel: how a circuit
//! is established, drained and terminated (paper §III).
//!
//! [`PseudoCircuitUnit`] is the register state machine; [`CircuitDatapath`]
//! drives it against a [`PipelineKernel`] — VC allocation for headers riding
//! a circuit, the SA-free drain from the input buffers, credit-exhaustion
//! termination, and the counters and trace events each transition reports.
//! Every scheme that holds crossbar connections (the pseudo-circuit router,
//! the profiled hybrid) owns one and decides only *when* to call it.
//!
//! The per-cycle methods are `#[inline]`: their callers are the scheme hooks
//! inside `PipelineKernel::step::<H>`, an instantiation that may land in
//! another codegen unit than this module, and without the hint every SA
//! candidate paid a call — 8–13 % of a low-load run, measured when the
//! kernel and the hybrid hooks still lived in other crates. The idle
//! predicate runs after every router step and is a visible share of a
//! near-quiescent run, so its pieces (`creditless_candidates`,
//! `creditless_holder` and `is_idle` here, `PcHooks::{is_idle,
//! credited_history}`) are `#[inline(always)]`: the plain hint still left
//! them 8–20 % slower there.

use crate::pipeline::PipelineKernel;
use crate::pseudo::{PcRegisters, PseudoCircuitUnit, Termination};
use noc_base::{
    Flit, Mask64, NodeId, PortIndex, RouteInfo, RouterId, VaPolicy, VcIndex, VcPartition,
};
use noc_energy::EnergyEvent;
use noc_sim::{NetworkConfig, RouterOutputs, TraceEventKind};
use noc_topology::Topology;

/// The circuit registers of one router plus the VC-allocation policy that
/// headers riding a circuit are allocated under.
pub(crate) struct CircuitDatapath {
    va_policy: VaPolicy,
    partition: VcPartition,
    /// The circuit registers (read by white-box tests; schemes drive the
    /// transitions this datapath does not own, e.g. speculative restores).
    pub(crate) pcu: PseudoCircuitUnit,
}

impl CircuitDatapath {
    /// Builds the datapath of router `id` on `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the VC count cannot be split evenly across the deadlock
    /// classes (see [`NetworkConfig::partition_for`]).
    pub(crate) fn new(id: RouterId, topo: &dyn Topology, config: &NetworkConfig) -> Self {
        Self {
            va_policy: config.va_policy,
            partition: config.partition_for(topo),
            pcu: PseudoCircuitUnit::new(topo.in_ports(id), topo.out_ports(id)),
        }
    }

    /// Allocates an output VC for a header (VA). `require_credit` makes the
    /// allocation fail unless the chosen VC has a downstream credit — used by
    /// the reuse/bypass paths that traverse the same cycle.
    #[inline]
    pub(crate) fn allocate_vc(
        &self,
        k: &mut PipelineKernel,
        route: RouteInfo,
        class: u8,
        dst: NodeId,
        owner: (PortIndex, VcIndex),
        require_credit: bool,
    ) -> Option<VcIndex> {
        let sub = route.hops as usize - 1;
        let port = route.port;
        let chosen = match self.va_policy {
            VaPolicy::Static => {
                let vc = self.partition.static_vc(class, dst);
                (k.out_vc_is_free(port, vc)
                    && (!require_credit || k.credits_available(port, sub, vc) > 0))
                    .then_some(vc)
            }
            VaPolicy::Dynamic => self
                .partition
                .class_range(class)
                .map(|v| VcIndex::new(v as usize))
                .filter(|&v| k.out_vc_is_free(port, v))
                .filter(|&v| !require_credit || k.credits_available(port, sub, v) > 0)
                .max_by_key(|&v| k.credits_available(port, sub, v)),
        }?;
        k.claim_out_vc(port, chosen, owner);
        Some(chosen)
    }

    /// Terminates the live circuit at `in_port` (no-op when none), reporting
    /// it to the per-port counters and the tracer.
    pub(crate) fn terminate(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        why: Termination,
    ) {
        let Some(pc) = self.pcu.live(in_port) else {
            return;
        };
        self.pcu.terminate(in_port, why);
        if let Some(p) = k.counters.as_deref_mut() {
            p.on_pc_terminated(in_port, why);
        }
        let kind = match why {
            Termination::Conflict => TraceEventKind::TerminateConflict,
            Termination::CreditExhausted => TraceEventKind::TerminateCredit,
        };
        k.trace(cycle, kind, in_port, pc.out_port);
    }

    /// The input port holding `port` through a circuit with no downstream
    /// credit at its drop position — the circuit phase A terminates.
    #[inline(always)]
    pub(crate) fn creditless_holder(
        &self,
        k: &PipelineKernel,
        port: PortIndex,
    ) -> Option<PortIndex> {
        let holder = self.pcu.holder(port)?;
        let sub = self.pcu.registers(holder).hops as usize - 1;
        (k.credits_at_sub(port, sub) == 0).then_some(holder)
    }

    /// The held output ports on which some drop position is out of credit:
    /// the only ports [`creditless_holder`](Self::creditless_holder) can
    /// name a circuit on (it decides by the circuit's own drop position).
    /// Almost always empty.
    #[inline(always)]
    fn creditless_candidates(&self, k: &PipelineKernel) -> Mask64 {
        self.pcu.held_mask() & k.creditless_ports()
    }

    /// Phase A: terminates circuits whose output has no downstream credit at
    /// the held drop position (buffer-overflow protection, §III.C).
    #[inline]
    pub(crate) fn terminate_creditless(&mut self, k: &mut PipelineKernel, cycle: u64) {
        for out_port in self.creditless_candidates(k) {
            if let Some(holder) = self.creditless_holder(k, PortIndex::new(out_port)) {
                self.terminate(k, cycle, holder, Termination::CreditExhausted);
            }
        }
    }

    /// The datapath's clause of the step-is-no-op predicate: no held circuit
    /// that [`terminate_creditless`](Self::terminate_creditless) would
    /// terminate.
    #[inline(always)]
    pub(crate) fn is_idle(&self, k: &PipelineKernel) -> bool {
        self.creditless_candidates(k)
            .into_iter()
            .all(|p| self.creditless_holder(k, PortIndex::new(p)).is_none())
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
    pub(crate) fn admit(
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
            let out_vc =
                self.allocate_vc(k, pc_route, flit.class, flit.dst, (in_port, vc), true)?;
            k.claim_input_vc(in_port, vc, pc_route, out_vc);
            k.stats.va_grants += 1;
            k.energy.record(EnergyEvent::Arbitration);
            if let Some(p) = k.counters.as_deref_mut() {
                p.on_va_grant(in_port);
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

    /// Phase C: circuit reuse from the input buffers. A buffered, ready
    /// head-of-VC flit that the live circuit [`admit`](Self::admit)s
    /// traverses immediately, bypassing SA.
    #[inline]
    pub(crate) fn reuse(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        // Reuse only drains buffered flits, and only through a live circuit.
        // Neither mask changes under the loop except at the visited port.
        for in_port in k.occupied_ports() & self.pcu.live_mask() {
            let in_port = PortIndex::new(in_port);
            if k.in_busy(in_port) {
                continue;
            }
            let Some(pc) = self.pcu.live(in_port) else {
                continue;
            };
            if k.out_busy(pc.out_port) {
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

    /// Whether a live circuit covers `(in_port, vc)` on `route`: such flits
    /// drain through the held connection and must not request the switch
    /// (§III.B, "the following flits coming to the same VC can bypass SA ...
    /// until the pseudo-circuit is terminated").
    #[inline]
    pub(crate) fn covers(&self, in_port: PortIndex, vc: VcIndex, route: RouteInfo) -> bool {
        self.pcu
            .live(in_port)
            .is_some_and(|pc| pc.in_vc == vc && pc.route() == route)
    }

    /// (Re)establishes the circuit of a granted connection, terminating the
    /// circuits it conflicts with on either port, and reports all of it.
    #[inline]
    pub(crate) fn establish(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        let outcome = self.pcu.establish(in_port, vc, route.port, route.hops);
        if let Some(p) = k.counters.as_deref_mut() {
            p.on_pc_established(in_port, outcome.created);
            for (victim, _) in outcome.terminated.into_iter().flatten() {
                p.on_pc_terminated(victim, Termination::Conflict);
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

    /// End of cycle: mirrors the termination counters into the router
    /// statistics and checks the one-circuit-per-port invariants.
    #[inline]
    pub(crate) fn mirror_stats(&self, k: &mut PipelineKernel) {
        k.stats.pc_terminations_conflict = self.pcu.terminations_conflict();
        k.stats.pc_terminations_credit = self.pcu.terminations_credit();
        debug_assert!(self.pcu.check_invariants().is_ok());
    }
}
