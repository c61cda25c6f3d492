//! The router abstraction the network engine drives.
//!
//! A [`RouterModel`] receives flits and credits delivered by the network
//! fabric, and once per cycle produces its outgoing flits and credits through
//! [`RouterOutputs`]. All link latencies are one cycle: whatever a router
//! emits during `step(cycle)` is delivered at `cycle + 1`.

use crate::metrics::{MetricsConfig, RouterObservation, TraceRing};
use noc_base::{Credit, FlitPool, FlitRef, PortIndex, RouterId, VcIndex};
use noc_topology::SharedTopology;
use std::ops::{Add, AddAssign};
use std::sync::Arc;

/// A flit leaving a router.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SentFlit {
    /// Output port the flit leaves through.
    pub out_port: PortIndex,
    /// Drop-off distance on the output channel (1 for point-to-point links
    /// and for local/ejection ports).
    pub hops: u8,
    /// The flit (pool-resident), with `vc` set to the downstream VC and
    /// `route` set to the lookahead route at the downstream router.
    pub flit: FlitRef,
}

/// Collects a router's emissions for one cycle.
#[derive(Default, Debug)]
pub struct RouterOutputs {
    /// Flits sent downstream this cycle.
    pub flits: Vec<SentFlit>,
    /// Credits returned upstream this cycle: the input port whose buffer
    /// freed a slot, and the VC it freed. The network fabric resolves which
    /// upstream output port (and multidrop position) receives the credit.
    pub credits: Vec<(PortIndex, VcIndex)>,
}

impl RouterOutputs {
    /// Clears both queues, retaining allocations.
    pub fn clear(&mut self) {
        self.flits.clear();
        self.credits.clear();
    }
}

/// Cumulative per-router statistics (all schemes share one struct; counters
/// that do not apply to a given scheme stay zero).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct RouterStats {
    /// Flits that traversed the crossbar (any path).
    pub flit_traversals: u64,
    /// Flits that bypassed switch arbitration via a pseudo-circuit
    /// (includes buffer-bypassed flits).
    pub pc_reuses: u64,
    /// Flits that additionally bypassed the input buffer.
    pub buffer_bypasses: u64,
    /// Header flits that reused a pseudo-circuit (headers set packet
    /// latency, so this is the latency-relevant hit rate).
    pub pc_header_reuses: u64,
    /// Header flits that also bypassed the buffer.
    pub pc_header_bypasses: u64,
    /// Header flits traversed in total.
    pub header_traversals: u64,
    /// Switch-arbitration grants issued.
    pub sa_grants: u64,
    /// VC-allocation grants issued.
    pub va_grants: u64,
    /// Pseudo-circuits restored speculatively.
    pub pc_speculative_restores: u64,
    /// Pseudo-circuits terminated by a conflicting grant.
    pub pc_terminations_conflict: u64,
    /// Pseudo-circuits terminated by downstream credit exhaustion.
    pub pc_terminations_credit: u64,
    /// Crossbar-connection temporal locality hits: flits whose
    /// (input port → output port) connection equals the previous traversal
    /// through the same input port (the paper's Fig. 1 metric).
    pub xbar_locality_hits: u64,
    /// Denominator for `xbar_locality_hits` (flit traversals with a
    /// predecessor on their input port).
    pub xbar_locality_total: u64,
    /// Express flits latched through without stopping (EVC scheme).
    pub express_bypasses: u64,
}

impl RouterStats {
    /// Fraction of flit traversals that reused a pseudo-circuit — the
    /// paper's *reusability* metric (Figs. 8b and 10).
    pub fn reusability(&self) -> f64 {
        if self.flit_traversals == 0 {
            0.0
        } else {
            self.pc_reuses as f64 / self.flit_traversals as f64
        }
    }

    /// Fraction of flit traversals that also bypassed the input buffer.
    pub fn bypass_rate(&self) -> f64 {
        if self.flit_traversals == 0 {
            0.0
        } else {
            self.buffer_bypasses as f64 / self.flit_traversals as f64
        }
    }

    /// Fraction of header traversals that reused a pseudo-circuit.
    pub fn header_hit_rate(&self) -> f64 {
        if self.header_traversals == 0 {
            0.0
        } else {
            self.pc_header_reuses as f64 / self.header_traversals as f64
        }
    }

    /// Crossbar-connection temporal locality (Fig. 1).
    pub fn xbar_locality(&self) -> f64 {
        if self.xbar_locality_total == 0 {
            0.0
        } else {
            self.xbar_locality_hits as f64 / self.xbar_locality_total as f64
        }
    }
}

impl Add for RouterStats {
    type Output = RouterStats;

    fn add(self, rhs: RouterStats) -> RouterStats {
        RouterStats {
            flit_traversals: self.flit_traversals + rhs.flit_traversals,
            pc_reuses: self.pc_reuses + rhs.pc_reuses,
            buffer_bypasses: self.buffer_bypasses + rhs.buffer_bypasses,
            pc_header_reuses: self.pc_header_reuses + rhs.pc_header_reuses,
            pc_header_bypasses: self.pc_header_bypasses + rhs.pc_header_bypasses,
            header_traversals: self.header_traversals + rhs.header_traversals,
            sa_grants: self.sa_grants + rhs.sa_grants,
            va_grants: self.va_grants + rhs.va_grants,
            pc_speculative_restores: self.pc_speculative_restores + rhs.pc_speculative_restores,
            pc_terminations_conflict: self.pc_terminations_conflict + rhs.pc_terminations_conflict,
            pc_terminations_credit: self.pc_terminations_credit + rhs.pc_terminations_credit,
            xbar_locality_hits: self.xbar_locality_hits + rhs.xbar_locality_hits,
            xbar_locality_total: self.xbar_locality_total + rhs.xbar_locality_total,
            express_bypasses: self.express_bypasses + rhs.express_bypasses,
        }
    }
}

impl AddAssign for RouterStats {
    fn add_assign(&mut self, rhs: RouterStats) {
        *self = *self + rhs;
    }
}

/// A cycle-accurate router microarchitecture.
pub trait RouterModel: Send {
    /// Accepts a flit arriving on `in_port` this cycle (before `step` runs).
    /// Ownership of the pool slot behind `flit` transfers to the router.
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef);

    /// Accepts a credit arriving for `out_port` this cycle.
    fn receive_credit(&mut self, out_port: PortIndex, credit: Credit);

    /// Advances one cycle, pushing outgoing flits and credits into `out`.
    fn step(&mut self, cycle: u64, out: &mut RouterOutputs);

    /// Whether `step` would be a provable no-op this cycle: no buffered or
    /// staged flits, no in-flight internal state, and no pending state
    /// transition (e.g. a circuit termination or speculative restore) that
    /// would fire. The engine skips `step` for routers that are idle and
    /// received no event this cycle, so an inexact `true` changes simulated
    /// behaviour; the conservative default keeps every router stepping.
    ///
    /// The engine asks once, after each `step`, and keeps skipping on a
    /// `true` until the router's next `receive_*` — so the answer may depend
    /// only on state that `receive_flit`, `receive_credit` and `step`
    /// change, never on the cycle number or on anything outside the router.
    fn is_idle(&self) -> bool {
        false
    }

    /// The flits whose pool slots this router owns between cycles: those
    /// buffered, and those received but not yet stepped. The flit
    /// conservation law [`crate::Simulation::audit`] checks counts them.
    fn buffered_flits(&self) -> usize;

    /// The downstream credits this router holds on output VC `(out_port,
    /// sub, vc)` (drop position `sub`) between cycles, counting one it has
    /// reserved for a flit granted the switch but not yet sent: its upstream
    /// side of the credit law [`crate::Simulation::audit`] checks. `None`
    /// (the default) for a model that keeps no credit books: the law then
    /// skips its links.
    fn credits(&self, _out_port: PortIndex, _sub: u8, _vc: VcIndex) -> Option<u32> {
        None
    }

    /// The flits this router holds on input VC `(in_port, vc)` between
    /// cycles, buffered or received but not yet stepped: its downstream side
    /// of the credit law. `None` (the default) as for
    /// [`credits`](Self::credits).
    fn flits_on(&self, _in_port: PortIndex, _vc: VcIndex) -> Option<usize> {
        None
    }

    /// The router's own laws between cycles, for
    /// [`crate::Simulation::audit`]: `Err` names the first one violated.
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }

    /// Cumulative statistics. The run's energy is derived from them
    /// (`Simulation::run`), so a model counts every crossbar traversal, VA
    /// and SA grant, and buffer or express bypass here.
    fn stats(&self) -> RouterStats;

    /// A snapshot of this router's per-port observability counters, when the
    /// model was built with [`crate::MetricsLevel::Full`]. Models without
    /// per-port instrumentation return `None` (the default).
    fn observation(&self) -> Option<RouterObservation> {
        None
    }

    /// This router's pseudo-circuit lifecycle trace ring, when tracing was
    /// requested for it. Models without a tracer return `None` (the default).
    fn tracer(&self) -> Option<&TraceRing> {
        None
    }
}

/// Everything a factory needs to build one router.
pub struct RouterBuildContext<'a> {
    /// The router's identity.
    pub id: RouterId,
    /// The network topology (for port counts, wiring, and lookahead routing).
    pub topology: &'a SharedTopology,
    /// Shared network parameters (VCs, buffer depth, policies).
    pub config: &'a crate::NetworkConfig,
    /// Per-router deterministic seed.
    pub seed: u64,
    /// Observability configuration for the run (level + optional tracing);
    /// factories for uninstrumented models may ignore it.
    pub metrics: &'a MetricsConfig,
    /// The shared flit slab every router reads and writes flit bodies
    /// through; the engine owns allocation sizing and recycling.
    pub pool: &'a Arc<FlitPool>,
}

/// Builds router instances for a network.
pub trait RouterFactory {
    /// Constructs the router with identity and wiring given by `ctx`.
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_ratios_handle_zero_denominators() {
        let s = RouterStats::default();
        assert_eq!(s.reusability(), 0.0);
        assert_eq!(s.bypass_rate(), 0.0);
        assert_eq!(s.xbar_locality(), 0.0);
    }

    #[test]
    fn stats_add_componentwise() {
        let a = RouterStats {
            flit_traversals: 10,
            pc_reuses: 4,
            buffer_bypasses: 2,
            sa_grants: 6,
            va_grants: 3,
            xbar_locality_hits: 5,
            xbar_locality_total: 9,
            ..Default::default()
        };
        let mut b = a;
        b += a;
        assert_eq!(b.flit_traversals, 20);
        assert_eq!(b.pc_reuses, 8);
        assert!((b.reusability() - 0.4).abs() < 1e-12);
        assert!((b.bypass_rate() - 0.2).abs() < 1e-12);
        assert!((b.xbar_locality() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn outputs_clear_retains_nothing() {
        let mut out = RouterOutputs::default();
        out.credits.push((PortIndex::new(0), VcIndex::new(1)));
        out.clear();
        assert!(out.flits.is_empty() && out.credits.is_empty());
    }
}
