#![warn(missing_docs)]

//! Cycle-accurate network simulation engine for the pseudo-circuit
//! reproduction.
//!
//! This crate provides the machinery every router scheme plugs into:
//!
//! - [`blocks`] — reusable microarchitecture primitives (input-VC FIFOs,
//!   round-robin arbiters, credit books, output-VC allocation state);
//! - [`pipeline`] — the speculative two-stage pipeline kernel
//!   ([`PipelineKernel`]) every router scheme shares, parameterized by
//!   [`SchemeHooks`], and the [`KernelRouter`] shell that makes a kernel +
//!   hooks pair a [`RouterModel`];
//! - [`probe`] — observability hooks ([`Probe`]) and the per-port
//!   [`RouterCounters`] the kernel drives at `--metrics=full`;
//! - [`RouterModel`] / [`RouterFactory`] — the cycle-level router interface
//!   the engine drives (the pseudo-circuit router lives in the
//!   `pseudo-circuit` crate, the EVC comparator in `noc-evc`);
//! - [`NetworkInterface`] — packetization, serial injection, reassembly and
//!   end-to-end locality measurement;
//! - [`Simulation`] — topology-driven wiring with one-cycle links and credit
//!   returns, warmup/measure/drain phases, and [`SimReport`] extraction.
//!
//! # Example
//!
//! Drive a 2×2 mesh of trivially-forwarding test routers (the real router
//! lives in the `pseudo-circuit` crate):
//!
//! ```
//! use noc_sim::{NetworkConfig, RunSpec, Simulation, test_model::WireRouterFactory};
//! use noc_traffic::{SyntheticPattern, SyntheticTraffic};
//! use noc_topology::Mesh;
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Mesh::new(2, 2, 1));
//! let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 2, 2, 1, 0.05, 7);
//! let mut sim = Simulation::new(
//!     topo,
//!     NetworkConfig::paper(),
//!     Box::new(traffic),
//!     &WireRouterFactory::default(),
//!     42,
//! );
//! let report = sim.run(RunSpec::new(100, 400, 1_000));
//! assert!(report.drained);
//! assert!(report.avg_latency > 0.0);
//! ```

pub mod blocks;
pub mod manifest;
pub mod metrics;
pub mod network;
pub mod ni;
pub mod pipeline;
pub mod probe;
pub mod router;
pub mod stats;
pub mod test_model;

pub use manifest::{config_hash, git_rev, RunManifest, MANIFEST_SCHEMA};
pub use metrics::{
    chrome_trace_json, MetricsConfig, MetricsLevel, ObservabilityReport, PipelineStage,
    RouterObservation, StageHistograms, TraceEvent, TraceEventKind, TraceRing, TraceSpec,
};
pub use network::{auto_threads, Simulation, ThreadDecision, MIN_ROUTERS_PER_SHARD};
pub use ni::{NetworkInterface, NiOutputs, NiStats};
pub use pipeline::{KernelRouter, PipelineKernel, SchemeHooks};
pub use probe::{Probe, RouterCounters, Termination};
pub use router::{
    RouterBuildContext, RouterFactory, RouterModel, RouterOutputs, RouterStats, SentFlit,
};
pub use stats::{LatencyHistogram, SimReport, SimStats};

use noc_base::{
    NodeId, PortIndex, RouteInfo, RouteMode, RouterId, RoutingPolicy, VaPolicy, VcPartition,
};
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

    /// The VC partition implied by the routing policy.
    ///
    /// # Panics
    ///
    /// Panics if the VC count cannot be split evenly across the policy's
    /// deadlock classes.
    pub fn partition(&self) -> VcPartition {
        VcPartition::new(self.vcs_per_port, self.routing.num_classes())
    }

    /// The VC partition on `topo`: the policy's deadlock classes widened to
    /// the topology's own minimum (e.g. a ring needs 2 dateline classes even
    /// under a single-class policy).
    ///
    /// # Panics
    ///
    /// Panics if the VC count cannot be split evenly across the classes.
    pub fn partition_for(&self, topo: &dyn Topology) -> VcPartition {
        let classes = self.routing.num_classes().max(topo.min_classes());
        VcPartition::new(self.vcs_per_port, classes)
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

/// Computes the lookahead route a flit must carry when leaving a router:
/// the output port it will need at the *next* router.
///
/// # Panics
///
/// Panics if `(router, out_port, hops)` is not a connected channel position.
pub fn lookahead_route(
    topo: &dyn Topology,
    router: RouterId,
    out_port: PortIndex,
    hops: u8,
    dst: NodeId,
    mode: RouteMode,
) -> RouteInfo {
    let end = topo.link(router, out_port, hops).unwrap_or_else(|| {
        panic!("lookahead over dead channel {router} port {out_port} hop {hops}")
    });
    topo.route(end.router, dst, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Mesh;

    #[test]
    fn paper_config_partitions() {
        let cfg = NetworkConfig::paper();
        let p = cfg.partition();
        assert_eq!(p.num_classes(), 2); // O1TURN
        assert_eq!(p.vcs_per_class(), 2);
        let xy = NetworkConfig {
            routing: RoutingPolicy::Xy,
            ..cfg
        };
        assert_eq!(xy.partition().num_classes(), 1);
        assert_eq!(xy.partition().vcs_per_class(), 4);
    }

    #[test]
    fn lookahead_is_next_routers_route() {
        let mesh = Mesh::new(4, 4, 1);
        // Router 0 sends east toward node 2: next router is 1, whose XY route
        // toward node 2 is east again (port concentration + 1 = 2).
        let route = lookahead_route(
            &mesh,
            RouterId::new(0),
            PortIndex::new(2),
            1,
            NodeId::new(2),
            RouteMode::XY,
        );
        assert_eq!(route.port, PortIndex::new(2));
        // Toward node 1 the next router *is* the destination: local port 0.
        let route = lookahead_route(
            &mesh,
            RouterId::new(0),
            PortIndex::new(2),
            1,
            NodeId::new(1),
            RouteMode::XY,
        );
        assert_eq!(route.port, PortIndex::new(0));
    }

    #[test]
    #[should_panic(expected = "dead channel")]
    fn lookahead_rejects_dead_channels() {
        let mesh = Mesh::new(2, 2, 1);
        // Router 0 has no west link (port 1+3 = 4).
        let _ = lookahead_route(
            &mesh,
            RouterId::new(0),
            PortIndex::new(4),
            1,
            NodeId::new(1),
            RouteMode::XY,
        );
    }
}
