//! Router-side observability hooks: the [`Probe`] trait the pipeline kernel
//! fires at each instrumented event, and [`RouterCounters`], the per-port
//! counter implementation exported into [`RouterObservation`] snapshots.
//!
//! The kernel holds its counters as `Option<Box<RouterCounters>>` — `None`
//! unless the simulation was built at [`crate::MetricsLevel::Full`] — so the
//! disabled configuration pays one pointer-is-null test per event and
//! allocates nothing, preserving both the golden report and the
//! zero-steady-state-allocation guarantee (`tests/zero_alloc.rs`).
//!
//! Counter semantics (units, increment sites, validated paper figures) are
//! specified in `docs/METRICS.md`; keep that contract in sync with any
//! change here.

use crate::metrics::{PipelineStage, RouterObservation, StageHistograms};
use noc_base::PortIndex;

/// Why a pseudo-circuit was terminated (statistics).
///
/// Lives here rather than in the pseudo-circuit crate because
/// [`Probe::on_pc_terminated`] carries it; the `pseudo-circuit` crate
/// re-exports it alongside its circuit state machine.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Termination {
    /// A switch-arbitration grant claimed one of its ports, or the incoming
    /// flit's route mismatched.
    Conflict,
    /// The downstream router ran out of credits.
    CreditExhausted,
}

/// Observability hooks fired by the router at each instrumented event.
///
/// Every method has a no-op default, so a probe implements only what it
/// cares about. All hooks take the *input* port of the affected circuit or
/// flit except [`on_pc_restored`](Probe::on_pc_restored), which is keyed by
/// output port (speculation is an output-side mechanism, paper §IV.A).
pub trait Probe {
    /// A flit traversed the crossbar from `in_port` (any path).
    fn on_traversal(&mut self, _in_port: PortIndex) {}

    /// Switch arbitration granted `in_port`'s request.
    fn on_sa_grant(&mut self, _in_port: PortIndex) {}

    /// VC allocation granted a header on `in_port` an output VC.
    fn on_va_grant(&mut self, _in_port: PortIndex) {}

    /// An SA grant (re)configured `in_port`'s pseudo-circuit; `created` is
    /// false when the same connection was already live (a refresh, possibly
    /// with a new VC, is not a creation).
    fn on_pc_established(&mut self, _in_port: PortIndex, _created: bool) {}

    /// A flit from `in_port` reused a live pseudo-circuit, skipping SA;
    /// `bypassed` marks the buffer-bypass path (skipped BW too, §IV.B).
    fn on_pc_hit(&mut self, _in_port: PortIndex, _bypassed: bool) {}

    /// The live pseudo-circuit at `in_port` was terminated.
    fn on_pc_terminated(&mut self, _in_port: PortIndex, _cause: Termination) {}

    /// Speculation restored the most recent circuit of `out_port` (§IV.A).
    fn on_pc_restored(&mut self, _out_port: PortIndex) {}

    /// A pipeline-stage wait of `cycles` was observed (see `docs/METRICS.md`
    /// for the per-stage measurement definitions).
    fn on_stage(&mut self, _stage: PipelineStage, _cycles: u64) {}
}

/// Flat per-port event counters for one router, exported as
/// [`RouterObservation`] snapshots.
///
/// All arrays are indexed by input port except `restores` (output port).
#[derive(Clone, Debug)]
pub struct RouterCounters {
    router: usize,
    traversals: Vec<u64>,
    sa_grants: Vec<u64>,
    va_grants: Vec<u64>,
    pc_hits: Vec<u64>,
    pc_creations: Vec<u64>,
    buffer_bypasses: Vec<u64>,
    term_conflict: Vec<u64>,
    term_credit: Vec<u64>,
    restores: Vec<u64>,
    stages: StageHistograms,
    /// Per input-VC slot, the cycle the kernel's VA phase granted the packet
    /// holding the VC its output VC (`u64::MAX`: none, or a reuse-path
    /// claim). Not a counter: the VA/SA stage samples are measured from it,
    /// and nothing else reads it, so it lives here — allocated with the
    /// counters — rather than in every router's per-VC state. Sized by
    /// [`crate::PipelineKernel::enable_metrics`].
    pub(crate) va_granted_at: Vec<u64>,
}

impl RouterCounters {
    /// Creates zeroed counters for `router` with the given port counts.
    pub fn new(router: usize, in_ports: usize, out_ports: usize) -> Self {
        Self {
            router,
            traversals: vec![0; in_ports],
            sa_grants: vec![0; in_ports],
            va_grants: vec![0; in_ports],
            pc_hits: vec![0; in_ports],
            pc_creations: vec![0; in_ports],
            buffer_bypasses: vec![0; in_ports],
            term_conflict: vec![0; in_ports],
            term_credit: vec![0; in_ports],
            restores: vec![0; out_ports],
            stages: StageHistograms::default(),
            va_granted_at: Vec::new(),
        }
    }

    /// Snapshots the counters as a [`RouterObservation`].
    pub fn export(&self) -> RouterObservation {
        RouterObservation {
            router: self.router,
            traversals: self.traversals.clone(),
            sa_grants: self.sa_grants.clone(),
            va_grants: self.va_grants.clone(),
            pc_hits: self.pc_hits.clone(),
            pc_creations: self.pc_creations.clone(),
            buffer_bypasses: self.buffer_bypasses.clone(),
            term_conflict: self.term_conflict.clone(),
            term_credit: self.term_credit.clone(),
            restores: self.restores.clone(),
            stages: self.stages.clone(),
        }
    }
}

impl Probe for RouterCounters {
    fn on_traversal(&mut self, in_port: PortIndex) {
        self.traversals[in_port.index()] += 1;
    }

    fn on_sa_grant(&mut self, in_port: PortIndex) {
        self.sa_grants[in_port.index()] += 1;
    }

    fn on_va_grant(&mut self, in_port: PortIndex) {
        self.va_grants[in_port.index()] += 1;
    }

    fn on_pc_established(&mut self, in_port: PortIndex, created: bool) {
        if created {
            self.pc_creations[in_port.index()] += 1;
        }
    }

    fn on_pc_hit(&mut self, in_port: PortIndex, bypassed: bool) {
        self.pc_hits[in_port.index()] += 1;
        if bypassed {
            self.buffer_bypasses[in_port.index()] += 1;
        }
    }

    fn on_pc_terminated(&mut self, in_port: PortIndex, cause: Termination) {
        match cause {
            Termination::Conflict => self.term_conflict[in_port.index()] += 1,
            Termination::CreditExhausted => self.term_credit[in_port.index()] += 1,
        }
    }

    fn on_pc_restored(&mut self, out_port: PortIndex) {
        self.restores[out_port.index()] += 1;
    }

    fn on_stage(&mut self, stage: PipelineStage, cycles: u64) {
        self.stages.record(stage, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PortIndex {
        PortIndex::new(i)
    }

    #[test]
    fn counters_accumulate_per_port() {
        let mut c = RouterCounters::new(7, 3, 3);
        c.on_traversal(p(1));
        c.on_traversal(p(1));
        c.on_sa_grant(p(1));
        c.on_va_grant(p(2));
        c.on_pc_established(p(1), true);
        c.on_pc_established(p(1), false); // refresh: not a creation
        c.on_pc_hit(p(1), false);
        c.on_pc_hit(p(1), true);
        c.on_pc_terminated(p(1), Termination::Conflict);
        c.on_pc_terminated(p(2), Termination::CreditExhausted);
        c.on_pc_restored(p(0));
        c.on_stage(PipelineStage::St, 3);
        let obs = c.export();
        assert_eq!(obs.router, 7);
        assert_eq!(obs.traversals, vec![0, 2, 0]);
        assert_eq!(obs.sa_grants, vec![0, 1, 0]);
        assert_eq!(obs.va_grants, vec![0, 0, 1]);
        assert_eq!(obs.pc_creations, vec![0, 1, 0]);
        assert_eq!(obs.pc_hits, vec![0, 2, 0]);
        assert_eq!(obs.buffer_bypasses, vec![0, 1, 0]);
        assert_eq!(obs.term_conflict, vec![0, 1, 0]);
        assert_eq!(obs.term_credit, vec![0, 0, 1]);
        assert_eq!(obs.restores, vec![1, 0, 0]);
        assert_eq!(obs.stages.st.count(), 1);
        assert_eq!(obs.terminations(), (1, 1));
    }

    #[test]
    fn default_probe_methods_are_noops() {
        struct Silent;
        impl Probe for Silent {}
        let mut s = Silent;
        s.on_traversal(p(0));
        s.on_pc_terminated(p(0), Termination::Conflict);
        s.on_stage(PipelineStage::Bw, 1);
    }
}
