//! Router-side observability: [`RouterCounters`], the per-port counters
//! the pipeline kernel and the scheme hooks bump at each instrumented event
//! and export as [`RouterObservation`] snapshots.
//!
//! The kernel holds its counters as `Option<Box<RouterCounters>>` — `None`
//! unless the simulation was built at [`noc_sim::MetricsLevel::Full`] — so the
//! disabled configuration pays one pointer-is-null test per event and
//! allocates nothing, preserving both the golden report and the
//! zero-steady-state-allocation guarantee (`tests/zero_alloc.rs`).
//!
//! Counter semantics (units, increment sites, validated paper figures) are
//! specified in `docs/METRICS.md`; keep that contract in sync with any
//! change here.

use crate::pseudo::Termination;
use noc_base::PortIndex;
use noc_sim::{PipelineStage, RouterObservation};

/// One router's `--metrics full` counters: the [`RouterObservation`] the
/// events accumulate into, plus the VA-grant cycles its stage samples are
/// measured from.
///
/// Every event method takes the *input* port of the affected circuit or
/// flit except [`on_pc_restored`](Self::on_pc_restored), which is keyed by
/// output port (speculation is an output-side mechanism, paper §IV.A).
#[derive(Clone, Debug)]
pub(crate) struct RouterCounters {
    observed: RouterObservation,
    /// Per input-VC slot, the cycle the kernel's VA phase granted the packet
    /// holding the VC its output VC (`u64::MAX`: none, or a reuse-path
    /// claim). Not a counter: the VA/SA stage samples are measured from it,
    /// and nothing else reads it, so it lives here — allocated with the
    /// counters — rather than in every router's per-VC state. Sized by
    /// [`crate::pipeline::PipelineKernel::enable_metrics`].
    pub(crate) va_granted_at: Vec<u64>,
}

impl RouterCounters {
    /// Creates zeroed counters for `router` with the given port counts.
    pub(crate) fn new(router: usize, in_ports: usize, out_ports: usize) -> Self {
        Self {
            observed: RouterObservation::zeroed(router, in_ports, out_ports),
            va_granted_at: Vec::new(),
        }
    }

    /// Snapshots the counters as a [`RouterObservation`].
    pub(crate) fn export(&self) -> RouterObservation {
        self.observed.clone()
    }

    /// A flit traversed the crossbar from `in_port` (any path).
    pub(crate) fn on_traversal(&mut self, in_port: PortIndex) {
        self.observed.traversals[in_port.index()] += 1;
    }

    /// Switch arbitration granted `in_port`'s request.
    pub(crate) fn on_sa_grant(&mut self, in_port: PortIndex) {
        self.observed.sa_grants[in_port.index()] += 1;
    }

    /// VC allocation granted a header on `in_port` an output VC.
    pub(crate) fn on_va_grant(&mut self, in_port: PortIndex) {
        self.observed.va_grants[in_port.index()] += 1;
    }

    /// An SA grant (re)configured `in_port`'s pseudo-circuit; `created` is
    /// false when the same connection was already live (a refresh, possibly
    /// with a new VC, is not a creation).
    pub(crate) fn on_pc_established(&mut self, in_port: PortIndex, created: bool) {
        if created {
            self.observed.pc_creations[in_port.index()] += 1;
        }
    }

    /// A flit from `in_port` reused a live pseudo-circuit, skipping SA;
    /// `bypassed` marks the buffer-bypass path (skipped BW too, §IV.B).
    pub(crate) fn on_pc_hit(&mut self, in_port: PortIndex, bypassed: bool) {
        self.observed.pc_hits[in_port.index()] += 1;
        if bypassed {
            self.observed.buffer_bypasses[in_port.index()] += 1;
        }
    }

    /// The live pseudo-circuit at `in_port` was terminated.
    pub(crate) fn on_pc_terminated(&mut self, in_port: PortIndex, cause: Termination) {
        let by_cause = match cause {
            Termination::Conflict => &mut self.observed.term_conflict,
            Termination::CreditExhausted => &mut self.observed.term_credit,
        };
        by_cause[in_port.index()] += 1;
    }

    /// Speculation restored the most recent circuit of `out_port` (§IV.A).
    pub(crate) fn on_pc_restored(&mut self, out_port: PortIndex) {
        self.observed.restores[out_port.index()] += 1;
    }

    /// A pipeline-stage wait of `cycles` was observed (see `docs/METRICS.md`
    /// for the per-stage measurement definitions).
    pub(crate) fn on_stage(&mut self, stage: PipelineStage, cycles: u64) {
        self.observed.stages.record(stage, cycles);
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
}
