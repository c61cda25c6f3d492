#![warn(missing_docs)]

//! Orion-style router energy model (Wang et al., MICRO 2002) for the
//! pseudo-circuit reproduction.
//!
//! The paper reports per-component energy at 45 nm in its Table II: the
//! crossbar costs 6.38 pJ per traversal and the component shares of total
//! router energy are 23.4% (buffers), 76.22% (crossbar) and 0.24% (arbiters).
//! Solving the shares against the crossbar figure yields a buffer cost of
//! ≈ 1.96 pJ per flit (split evenly between write and read) and an arbiter
//! cost of ≈ 0.02 pJ per arbitration — the constants adopted here (see
//! DESIGN.md §5; the OCR of the paper truncates the two smaller numbers).
//!
//! Energy accounting is event-based: the router calls
//! [`EnergyCounters::record`] for every buffer write, buffer read, crossbar
//! traversal and arbitration; [`EnergyModel::total_pj`] converts the counters
//! into picojoules. Only *relative* energy matters for the paper's Fig. 11
//! (it is normalized to the baseline router).
//!
//! # Example
//!
//! ```
//! use noc_energy::{EnergyCounters, EnergyEvent, EnergyModel};
//!
//! let model = EnergyModel::paper_45nm();
//! let mut counters = EnergyCounters::default();
//! counters.record(EnergyEvent::BufferWrite);
//! counters.record(EnergyEvent::BufferRead);
//! counters.record(EnergyEvent::CrossbarTraversal);
//! counters.record(EnergyEvent::Arbitration);
//! let total = model.total_pj(&counters);
//! assert!((total - (0.98 + 0.98 + 6.38 + 0.02)).abs() < 1e-9);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign};

/// A single energy-consuming micro-event inside a router.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EnergyEvent {
    /// A flit written into an input-VC buffer.
    BufferWrite,
    /// A flit read out of an input-VC buffer for switch traversal.
    BufferRead,
    /// A flit passing through the crossbar.
    CrossbarTraversal,
    /// One switch/VC arbitration performed for a flit.
    Arbitration,
}

/// Event counts accumulated by one router (or summed over a network).
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
    /// Records one event.
    #[inline]
    pub fn record(&mut self, event: EnergyEvent) {
        match event {
            EnergyEvent::BufferWrite => self.buffer_writes += 1,
            EnergyEvent::BufferRead => self.buffer_reads += 1,
            EnergyEvent::CrossbarTraversal => self.crossbar_traversals += 1,
            EnergyEvent::Arbitration => self.arbitrations += 1,
        }
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
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

/// Per-event energy constants in picojoules.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EnergyModel {
    /// Energy per buffer write (pJ).
    pub buffer_write_pj: f64,
    /// Energy per buffer read (pJ).
    pub buffer_read_pj: f64,
    /// Energy per crossbar traversal (pJ).
    pub crossbar_pj: f64,
    /// Energy per arbitration (pJ).
    pub arbiter_pj: f64,
}

impl EnergyModel {
    /// The 45 nm constants reconstructed from the paper's Table II.
    pub fn paper_45nm() -> Self {
        Self {
            buffer_write_pj: 0.98,
            buffer_read_pj: 0.98,
            crossbar_pj: 6.38,
            arbiter_pj: 0.02,
        }
    }

    /// Total energy in picojoules for the recorded events.
    pub fn total_pj(&self, counters: &EnergyCounters) -> f64 {
        self.breakdown(counters).total()
    }

    /// Per-component energy for the recorded events.
    pub fn breakdown(&self, counters: &EnergyCounters) -> EnergyBreakdown {
        EnergyBreakdown {
            buffer_pj: counters.buffer_writes as f64 * self.buffer_write_pj
                + counters.buffer_reads as f64 * self.buffer_read_pj,
            crossbar_pj: counters.crossbar_traversals as f64 * self.crossbar_pj,
            arbiter_pj: counters.arbitrations as f64 * self.arbiter_pj,
        }
    }

    /// The steady-state component shares for a flit that is written, read,
    /// traverses the crossbar, and is arbitrated exactly once per hop —
    /// reproduces the percentage row of the paper's Table II.
    pub fn reference_shares(&self) -> EnergyBreakdown {
        let mut counters = EnergyCounters::default();
        counters.record(EnergyEvent::BufferWrite);
        counters.record(EnergyEvent::BufferRead);
        counters.record(EnergyEvent::CrossbarTraversal);
        counters.record(EnergyEvent::Arbitration);
        self.breakdown(&counters)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper_45nm()
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

    #[test]
    fn table_ii_shares_are_reproduced() {
        let model = EnergyModel::paper_45nm();
        let per_hop = model.reference_shares();
        // One flit through one router: buffer write + read, crossbar, arbiter.
        let pj = (per_hop.buffer_pj, per_hop.crossbar_pj, per_hop.arbiter_pj);
        assert_eq!(pj, (0.98 + 0.98, 6.38, 0.02));
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
        a.record(EnergyEvent::BufferWrite);
        a.record(EnergyEvent::BufferWrite);
        a.record(EnergyEvent::CrossbarTraversal);
        let mut b = EnergyCounters::default();
        b.record(EnergyEvent::BufferRead);
        b.record(EnergyEvent::Arbitration);
        let sum = a + b;
        assert_eq!(sum.buffer_writes, 2);
        assert_eq!(sum.buffer_reads, 1);
        assert_eq!(sum.crossbar_traversals, 1);
        assert_eq!(sum.arbitrations, 1);
        a += b;
        assert_eq!(a, sum);
    }

    #[test]
    fn bypassed_flit_saves_buffer_energy() {
        // A buffer-bypassed flit is charged only the crossbar, saving the
        // paper's ~23.6% per hop.
        let model = EnergyModel::paper_45nm();
        let mut normal = EnergyCounters::default();
        normal.record(EnergyEvent::BufferWrite);
        normal.record(EnergyEvent::BufferRead);
        normal.record(EnergyEvent::CrossbarTraversal);
        normal.record(EnergyEvent::Arbitration);
        let mut bypassed = EnergyCounters::default();
        bypassed.record(EnergyEvent::CrossbarTraversal);
        let saving = 1.0 - model.total_pj(&bypassed) / model.total_pj(&normal);
        assert!((saving - 0.2378).abs() < 0.01, "saving {saving}");
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        let model = EnergyModel::paper_45nm();
        let b = model.breakdown(&EnergyCounters::default());
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn display_mentions_all_components() {
        let model = EnergyModel::paper_45nm();
        let text = model.reference_shares().to_string();
        assert!(text.contains("buffer"));
        assert!(text.contains("crossbar"));
        assert!(text.contains("arbiter"));
    }
}
