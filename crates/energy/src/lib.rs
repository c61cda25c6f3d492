#![warn(missing_docs)]

//! Orion-style router energy model (Wang et al., MICRO 2002) for the
//! pseudo-circuit reproduction.
//!
//! The paper reports per-component energy at 45 nm in its Table II: the
//! crossbar costs 6.38 pJ per traversal and the component shares of total
//! router energy are 23.4% (buffers), 76.22% (crossbar) and 0.24% (arbiters).
//! Solving the shares against the crossbar figure yields a buffer cost of
//! ≈ 1.96 pJ per flit (split evenly between write and read) and an arbiter
//! cost of ≈ 0.02 pJ per arbitration — the constants below (see DESIGN.md
//! §5; the OCR of the paper truncates the two smaller numbers).
//!
//! Energy accounting is event-based: [`EnergyCounters`] holds a run's buffer
//! writes, buffer reads, crossbar traversals and arbitrations, and
//! [`EnergyCounters::breakdown`] converts them into picojoules. Routers keep
//! no energy counters: `noc-sim` derives the four counts from the routers'
//! statistics when a run reports (traversals, VA and SA grants, bypasses,
//! and the flits still buffered). Only *relative* energy matters for the
//! paper's Fig. 11 (it is normalized to the baseline router).
//!
//! # Example
//!
//! ```
//! use noc_energy::EnergyCounters;
//!
//! let counters = EnergyCounters {
//!     buffer_writes: 1,
//!     buffer_reads: 1,
//!     crossbar_traversals: 1,
//!     arbitrations: 1,
//! };
//! let total = counters.breakdown().total();
//! assert!((total - (0.98 + 0.98 + 6.38 + 0.02)).abs() < 1e-9);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign};

/// Energy per buffer write (pJ): half of Table II's buffer cost per flit.
pub(crate) const BUFFER_WRITE_PJ: f64 = 0.98;
/// Energy per buffer read (pJ): the other half.
pub(crate) const BUFFER_READ_PJ: f64 = 0.98;
/// Energy per crossbar traversal (pJ), Table II.
pub(crate) const CROSSBAR_PJ: f64 = 6.38;
/// Energy per arbitration (pJ), solved from Table II's 0.24 % share.
pub(crate) const ARBITER_PJ: f64 = 0.02;

/// Energy event counts of a run (or of several runs, summed).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct EnergyCounters {
    /// Number of buffer writes.
    pub buffer_writes: u64,
    /// Number of buffer reads.
    pub buffer_reads: u64,
    /// Number of crossbar traversals.
    pub crossbar_traversals: u64,
    /// Number of arbitrations.
    pub arbitrations: u64,
}

impl EnergyCounters {
    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Per-component energy for the recorded events, at the 45 nm constants.
    pub fn breakdown(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            buffer_pj: self.buffer_writes as f64 * BUFFER_WRITE_PJ
                + self.buffer_reads as f64 * BUFFER_READ_PJ,
            crossbar_pj: self.crossbar_traversals as f64 * CROSSBAR_PJ,
            arbiter_pj: self.arbitrations as f64 * ARBITER_PJ,
        }
    }
}

impl Add for EnergyCounters {
    type Output = EnergyCounters;

    fn add(self, rhs: EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            buffer_writes: self.buffer_writes + rhs.buffer_writes,
            buffer_reads: self.buffer_reads + rhs.buffer_reads,
            crossbar_traversals: self.crossbar_traversals + rhs.crossbar_traversals,
            arbitrations: self.arbitrations + rhs.arbitrations,
        }
    }
}

impl AddAssign for EnergyCounters {
    fn add_assign(&mut self, rhs: EnergyCounters) {
        *self = *self + rhs;
    }
}

/// Energy split by router component, in picojoules.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct EnergyBreakdown {
    /// Buffer (read + write) energy.
    pub buffer_pj: f64,
    /// Crossbar energy.
    pub crossbar_pj: f64,
    /// Arbiter energy.
    pub arbiter_pj: f64,
}

impl EnergyBreakdown {
    /// Total across components.
    pub fn total(&self) -> f64 {
        self.buffer_pj + self.crossbar_pj + self.arbiter_pj
    }

    /// Component shares as fractions of the total (0 when the total is 0).
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.buffer_pj / t,
            self.crossbar_pj / t,
            self.arbiter_pj / t,
        )
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (b, x, a) = self.shares();
        write!(
            f,
            "buffer {:.2} pJ ({:.1}%), crossbar {:.2} pJ ({:.1}%), arbiter {:.2} pJ ({:.1}%)",
            self.buffer_pj,
            b * 100.0,
            self.crossbar_pj,
            x * 100.0,
            self.arbiter_pj,
            a * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One flit through one router: buffer write + read, crossbar, arbiter.
    const ONE_HOP: EnergyCounters = EnergyCounters {
        buffer_writes: 1,
        buffer_reads: 1,
        crossbar_traversals: 1,
        arbitrations: 1,
    };

    #[test]
    fn table_ii_shares_are_reproduced() {
        let per_hop = ONE_HOP.breakdown();
        let pj = (per_hop.buffer_pj, per_hop.crossbar_pj, per_hop.arbiter_pj);
        assert_eq!(
            pj,
            (BUFFER_WRITE_PJ + BUFFER_READ_PJ, CROSSBAR_PJ, ARBITER_PJ)
        );
        // Table II: 6.38 pJ crossbar, ≈ 0.98 pJ per buffer access, ≈ 0.02 pJ
        // per arbitration.
        assert_eq!(
            (BUFFER_WRITE_PJ, BUFFER_READ_PJ, CROSSBAR_PJ, ARBITER_PJ),
            (0.98, 0.98, 6.38, 0.02)
        );
        let (buffer, crossbar, arbiter) = per_hop.shares();
        // Paper Table II: 23.4% / 76.22% / 0.24%.
        assert!((buffer - 0.234).abs() < 0.005, "buffer share {buffer}");
        assert!(
            (crossbar - 0.7622).abs() < 0.005,
            "crossbar share {crossbar}"
        );
        assert!((arbiter - 0.0024).abs() < 0.001, "arbiter share {arbiter}");
    }

    #[test]
    fn counters_accumulate_and_add() {
        let mut a = EnergyCounters::default();
        assert!(a.is_empty());
        a.buffer_writes += 2;
        a.crossbar_traversals += 1;
        let b = EnergyCounters {
            buffer_reads: 1,
            arbitrations: 1,
            ..EnergyCounters::default()
        };
        let sum = a + b;
        assert_eq!(
            sum,
            ONE_HOP
                + EnergyCounters {
                    buffer_writes: 1,
                    ..EnergyCounters::default()
                }
        );
        a += b;
        assert_eq!(a, sum);
    }

    #[test]
    fn bypassed_flit_saves_buffer_energy() {
        // A buffer-bypassed flit is charged only the crossbar, saving the
        // paper's ~23.6% per hop.
        let bypassed = EnergyCounters {
            crossbar_traversals: 1,
            ..EnergyCounters::default()
        };
        let saving = 1.0 - bypassed.breakdown().total() / ONE_HOP.breakdown().total();
        assert!((saving - 0.2378).abs() < 0.01, "saving {saving}");
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        let b = EnergyCounters::default().breakdown();
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn display_mentions_all_components() {
        let text = ONE_HOP.breakdown().to_string();
        assert!(text.contains("buffer"));
        assert!(text.contains("crossbar"));
        assert!(text.contains("arbiter"));
    }
}
