#![warn(missing_docs)]

//! **pseudo-circuit** — reproduction of *"Pseudo-Circuit: Accelerating
//! Communication for On-Chip Interconnection Networks"* (Ahn & Kim,
//! MICRO 2010).
//!
//! Packet-switched on-chip routers spend a pipeline stage on switch
//! arbitration (SA) at every hop. The paper observes that flits frequently
//! traverse the same input-port → output-port crossbar connection as a recent
//! predecessor (*communication temporal locality*) and proposes keeping the
//! connection configured after each traversal as a **pseudo-circuit**: a
//! later flit on the same input VC whose route matches simply flows through,
//! bypassing SA. Two aggressive extensions — **pseudo-circuit speculation**
//! (restore terminated circuits on idle outputs) and **buffer bypassing**
//! (skip the buffer-write stage through a write-through latch) — push per-hop
//! router delay from 3 cycles down to 1 on a hit.
//!
//! This crate is the router: one speculative two-stage pipeline kernel
//! (wormhole switching, credit-based flow control, lookahead routing) and the
//! schemes that edit it, through two crate-private sets of hooks over the
//! kernel (the circuit schemes', the EVC comparator's). It provides:
//!
//! - [`PcRouter`] — the pseudo-circuit router, implementing all five
//!   configurations of the paper ([`Scheme::paper_lineup`]), the baseline
//!   among them; its [`PseudoCircuitUnit`] is the register/history state
//!   machine of §III–IV;
//! - the EVC router ([`evc`]) — the Express Virtual Channels comparator of
//!   §VII.B;
//! - the profiled hybrid ([`hybrid`]) — He & Cao's profiled hybrid
//!   switching, a second comparator: a [`PcRouter`] whose circuits only hot
//!   flows may establish;
//! - [`PcRouterFactory`], [`EvcRouterFactory`] and [`HybridRouterFactory`] —
//!   the [`noc_sim::RouterFactory`]s that plug a scheme into
//!   [`noc_sim::Simulation`].
//!
//! The kernel and the hook contract between it and the schemes are private
//! to the crate (docs/ARCHITECTURE.md, "Adding a scheme"). What tests reach
//! from outside is the router itself: the `RouterModel` methods, `hooks()`,
//! `pool()`, `enable_metrics()` and [`PcHooks::pseudo_unit`].
//!
//! An experiment is described one of two ways (docs/ARCHITECTURE.md,
//! "Describing an experiment: two levels"): by name, as a
//! `noc_campaign::PointSpec` built with `noc_campaign::build_simulation`
//! (what `noc run`, campaigns and the figure specs do), or — for what
//! the vocabulary cannot name — by handing live objects to
//! [`noc_sim::Simulation::new`], as below.
//!
//! # Quickstart
//!
//! ```
//! use noc_sim::{NetworkConfig, RunSpec, Simulation};
//! use noc_topology::{Mesh, SharedTopology};
//! use noc_traffic::{SyntheticPattern, SyntheticTraffic};
//! use pseudo_circuit::{PcRouterFactory, Scheme};
//! use std::sync::Arc;
//!
//! let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 1));
//! let run = |scheme: Scheme| {
//!     let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 4, 4, 5, 0.1, 7);
//!     Simulation::new(
//!         topo.clone(),
//!         NetworkConfig::paper(), // 4 VCs x 4 flits, O1TURN + dynamic VA
//!         Box::new(traffic),
//!         &PcRouterFactory::new(scheme),
//!         1,
//!     )
//!     .run(RunSpec::new(200, 1_000, 5_000))
//! };
//!
//! let baseline = run(Scheme::baseline());
//! let pseudo = run(Scheme::pseudo_ps_bb());
//! assert!(pseudo.avg_latency <= baseline.avg_latency);
//! assert!(pseudo.reusability() > 0.0);
//! ```

mod config;
pub mod evc;
pub mod hybrid;
mod pipeline;
mod pseudo;
mod router;

pub use config::Scheme;
pub use evc::EvcRouterFactory;
pub use hybrid::HybridRouterFactory;
pub use pseudo::{EstablishOutcome, PcRegisters, PseudoCircuitUnit};
pub use router::{PcHooks, PcRouter, PcRouterFactory};
