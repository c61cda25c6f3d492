#![warn(missing_docs)]

//! Cycle-accurate network simulation engine for the pseudo-circuit
//! reproduction.
//!
//! This crate provides the machinery every router scheme plugs into:
//!
//! - [`RouterModel`] / [`RouterFactory`] — the cycle-level router interface
//!   the engine drives (the routers themselves — the pipeline kernel and the
//!   pseudo-circuit, EVC and hybrid schemes over it — live in the
//!   `pseudo-circuit` crate);
//! - [`blocks`] — the input-VC flit buffers ([`blocks::FifoBank`]) the
//!   kernel's input VCs are runs of;
//! - [`metrics`] — the observability types a router reports through
//!   ([`RouterObservation`], [`TraceRing`], [`StageHistograms`]);
//! - [`NetworkInterface`] — packetization, serial injection, reassembly and
//!   end-to-end locality measurement;
//! - [`Simulation`] — topology-driven wiring with one-cycle links and credit
//!   returns, warmup/measure/drain phases, and [`SimReport`] extraction.
//!
//! # Example
//!
//! `examples/quickstart.rs` at the workspace root builds simulations from
//! `noc_campaign::PointSpec`s and compares the schemes; a router model only
//! the engine's own tests need — an ideal fixed-delay wire — lives with them
//! under `crates/sim/tests/test_model/`.

pub mod blocks;
pub mod manifest;
pub mod metrics;
pub mod network;
pub mod ni;
pub mod router;
pub mod stats;

pub use manifest::git_rev;
pub use metrics::{
    MetricsConfig, MetricsLevel, ObservabilityReport, PipelineStage, RouterObservation,
    StageHistograms, TraceEvent, TraceEventKind, TraceRing, TraceSpec, TRACE_RING_EVENTS,
};
pub use network::Simulation;
pub use ni::{NetworkInterface, NiStats};
pub use router::{
    RouterBuildContext, RouterFactory, RouterModel, RouterOutputs, RouterStats, SentFlit,
};
pub use stats::{LatencyHistogram, SimReport, SimStats};

use noc_base::{RoutingPolicy, VaPolicy, VcPartition};
use noc_topology::Topology;

/// Network-wide structural parameters shared by routers and interfaces.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct NetworkConfig {
    /// Virtual channels per port (paper: 4).
    pub vcs_per_port: u8,
    /// Buffer depth per VC in flits (paper: 4).
    pub buffer_depth: u32,
    /// Routing algorithm.
    pub routing: RoutingPolicy,
    /// VC allocation policy.
    pub va_policy: VaPolicy,
}

impl NetworkConfig {
    /// The paper's configuration: 4 VCs × 4-flit buffers, O1TURN routing with
    /// dynamic VC allocation (the strongest baseline per §VI.A).
    pub fn paper() -> Self {
        Self {
            vcs_per_port: 4,
            buffer_depth: 4,
            routing: RoutingPolicy::O1Turn,
            va_policy: VaPolicy::Dynamic,
        }
    }

    /// The deadlock classes each port's VCs are split into on `topo`: the
    /// policy's classes widened to the topology's own minimum (e.g. a ring
    /// needs 2 dateline classes even under a single-class policy).
    pub fn deadlock_classes(&self, topo: &dyn Topology) -> u8 {
        self.routing.num_classes().max(topo.min_classes())
    }

    /// The VC partition on `topo`, one class per [`deadlock
    /// class`](Self::deadlock_classes).
    ///
    /// # Panics
    ///
    /// Panics if the VC count cannot be split evenly across the classes.
    pub fn partition_for(&self, topo: &dyn Topology) -> VcPartition {
        VcPartition::new(self.vcs_per_port, self.deadlock_classes(topo))
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Run phases: `warmup` cycles ignored, `measure` cycles observed, then up to
/// `drain` cycles to let measured packets complete.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RunSpec {
    /// Cycles before measurement starts.
    pub warmup: u64,
    /// Measurement-window length in cycles.
    pub measure: u64,
    /// Maximum extra cycles waiting for measured packets to drain.
    pub drain: u64,
}

impl RunSpec {
    /// Creates a run specification.
    pub fn new(warmup: u64, measure: u64, drain: u64) -> Self {
        Self {
            warmup,
            measure,
            drain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Mesh;

    #[test]
    fn paper_config_partitions() {
        let mesh = Mesh::new(4, 4, 1);
        let cfg = NetworkConfig::paper();
        // Table I: 4 VCs per port, 4 flits of buffer per VC.
        assert_eq!((cfg.vcs_per_port, cfg.buffer_depth), (4, 4));
        let p = cfg.partition_for(&mesh);
        assert_eq!(p.num_classes(), 2); // O1TURN
        assert_eq!(p.vcs_per_class(), 2);
        let xy = NetworkConfig {
            routing: RoutingPolicy::Xy,
            ..cfg
        };
        assert_eq!(xy.partition_for(&mesh).num_classes(), 1);
        assert_eq!(xy.partition_for(&mesh).vcs_per_class(), 4);
    }
}
