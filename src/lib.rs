#![warn(missing_docs)]

//! Facade crate for the pseudo-circuit reproduction workspace.
//!
//! Re-exports every member crate under one roof so examples and integration
//! tests can use a single dependency, and hosts the [`cli`] module backing
//! the `noc` command-line experiment runner. See the `pseudo-circuit` crate
//! (in `crates/core`) for the paper's contribution and `DESIGN.md` for the
//! system inventory.

pub use noc_base as base;
pub use noc_campaign as campaign;
pub use noc_energy as energy;
pub use noc_sim as sim;
pub use noc_topology as topology;
pub use noc_traffic as traffic;
pub use pseudo_circuit as core;
pub use pseudo_circuit::{evc, hybrid};

pub mod cli;
