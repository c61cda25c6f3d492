//! Simulation-level statistics: measurement windows, latency accounting, and
//! the report the CLI, campaigns and tests read.

use crate::metrics::ObservabilityReport;
use crate::router::RouterStats;
use noc_energy::{EnergyBreakdown, EnergyCounters};
use noc_traffic::DeliveredPacket;
use std::fmt;

/// A simple power-of-two latency histogram (buckets `[2^k, 2^(k+1))`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        let bucket = 64 - latency.leading_zeros() as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Adds every sample of `other` to this histogram, bucket by bucket.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Iterates `(bucket_upper_bound_exclusive, count)` pairs for non-empty
    /// buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (1u64 << k, c))
    }

    /// An upper bound on the `q`-quantile latency (`0 < q <= 1`), or 0 when
    /// empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (bound, count) in self.iter() {
            seen += count;
            if seen >= target {
                return bound;
            }
        }
        1u64 << (self.buckets.len().saturating_sub(1))
    }
}

/// In-flight measurement state; owned by the simulation driver.
#[derive(Clone, Debug)]
pub struct SimStats {
    window: (u64, u64),
    /// All packets accepted by source interfaces.
    pub injected_packets: u64,
    /// All packets fully delivered.
    pub delivered_packets: u64,
    /// Packets created inside the measurement window.
    pub measured_injected: u64,
    /// Measured packets fully delivered.
    pub measured_delivered: u64,
    /// Sum of measured packet latencies.
    pub measured_latency_sum: u64,
    /// Flits of measured packets delivered.
    pub measured_flits: u64,
    /// Sum of minimal hop counts of measured delivered packets (equal to
    /// actual hops under minimal dimension-order routing).
    pub measured_hops_sum: u64,
    /// Largest measured latency.
    pub max_latency: u64,
    /// Histogram of measured latencies.
    pub histogram: LatencyHistogram,
}

impl SimStats {
    /// Creates statistics for the measurement window `[start, end)`.
    pub fn new(window_start: u64, window_end: u64) -> Self {
        Self {
            window: (window_start, window_end),
            injected_packets: 0,
            delivered_packets: 0,
            measured_injected: 0,
            measured_delivered: 0,
            measured_latency_sum: 0,
            measured_flits: 0,
            measured_hops_sum: 0,
            max_latency: 0,
            histogram: LatencyHistogram::default(),
        }
    }

    /// Whether `cycle` falls inside the measurement window.
    pub(crate) fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.window.0 && cycle < self.window.1
    }

    /// Records a packet entering a source queue at `cycle`.
    pub(crate) fn on_injected(&mut self, cycle: u64) {
        self.injected_packets += 1;
        if self.in_window(cycle) {
            self.measured_injected += 1;
        }
    }

    /// Records a completed delivery; `hops` is the packet's router-to-router
    /// hop count.
    pub(crate) fn on_delivered(&mut self, packet: &DeliveredPacket, hops: u32) {
        self.delivered_packets += 1;
        if self.in_window(packet.injected_at) {
            let latency = packet.delivered_at - packet.injected_at;
            self.measured_delivered += 1;
            self.measured_latency_sum += latency;
            self.measured_flits += packet.len as u64;
            self.measured_hops_sum += hops as u64;
            self.max_latency = self.max_latency.max(latency);
            self.histogram.record(latency.max(1));
        }
    }

    /// Measured packets still in flight.
    pub(crate) fn measured_in_flight(&self) -> u64 {
        self.measured_injected - self.measured_delivered
    }

    /// Mean hop count of measured packets (0 when none completed).
    pub fn avg_hops(&self) -> f64 {
        if self.measured_delivered == 0 {
            0.0
        } else {
            self.measured_hops_sum as f64 / self.measured_delivered as f64
        }
    }

    /// Mean latency of measured packets (0 when none completed).
    pub fn avg_latency(&self) -> f64 {
        if self.measured_delivered == 0 {
            0.0
        } else {
            self.measured_latency_sum as f64 / self.measured_delivered as f64
        }
    }
}

/// The result of one simulation run.
///
/// `Debug` is implemented by hand: it matches the derived pretty-print
/// field-for-field but appends [`observability`](Self::observability) only
/// when present, so reports from metrics-off runs remain byte-identical to
/// the pre-observability golden reference (`tests/golden_report.rs`).
#[derive(Clone)]
pub struct SimReport {
    /// Topology name.
    pub topology: String,
    /// Traffic model name.
    pub traffic: String,
    /// Total cycles simulated (including warmup and drain).
    pub cycles: u64,
    /// Mean measured packet latency (source-queue entry to tail ejection).
    pub avg_latency: f64,
    /// Mean router-to-router hop count of measured packets (the paper's
    /// `H_avg` term, §VII).
    pub avg_hops: f64,
    /// Upper bound on the 99th-percentile measured latency.
    pub p99_latency_bound: u64,
    /// Packets created in the measurement window.
    pub measured_injected: u64,
    /// Measured packets delivered.
    pub measured_delivered: u64,
    /// All packets delivered over the whole run.
    pub delivered_packets: u64,
    /// Delivered measured flits per node per measured cycle.
    pub throughput: f64,
    /// Summed router statistics.
    pub router_stats: RouterStats,
    /// Router energy events, derived from `router_stats` and the flits
    /// still buffered when the run reports (`Simulation::run`).
    pub energy: EnergyCounters,
    /// Energy in pJ by component (paper Table II constants).
    pub energy_breakdown: EnergyBreakdown,
    /// End-to-end communication temporal locality (Fig. 1 metric).
    pub end_to_end_locality: f64,
    /// Whether every measured packet drained before the drain limit.
    pub drained: bool,
    /// Total source-queue backlog at the end of the run (saturation signal).
    pub final_backlog: u64,
    /// Per-router observability payload (`--metrics=full` runs only).
    pub observability: Option<ObservabilityReport>,
}

impl fmt::Debug for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("SimReport");
        s.field("topology", &self.topology)
            .field("traffic", &self.traffic)
            .field("cycles", &self.cycles)
            .field("avg_latency", &self.avg_latency)
            .field("avg_hops", &self.avg_hops)
            .field("p99_latency_bound", &self.p99_latency_bound)
            .field("measured_injected", &self.measured_injected)
            .field("measured_delivered", &self.measured_delivered)
            .field("delivered_packets", &self.delivered_packets)
            .field("throughput", &self.throughput)
            .field("router_stats", &self.router_stats)
            .field("energy", &self.energy)
            .field("energy_breakdown", &self.energy_breakdown)
            .field("end_to_end_locality", &self.end_to_end_locality)
            .field("drained", &self.drained)
            .field("final_backlog", &self.final_backlog);
        if self.observability.is_some() {
            s.field("observability", &self.observability);
        }
        s.finish()
    }
}

impl SimReport {
    /// Total router energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy_breakdown.total()
    }

    /// Pseudo-circuit reusability (paper Figs. 8b, 10).
    pub fn reusability(&self) -> f64 {
        self.router_stats.reusability()
    }

    /// Fraction of traversals that bypassed buffering.
    pub fn bypass_rate(&self) -> f64 {
        self.router_stats.bypass_rate()
    }

    /// Crossbar-connection temporal locality (Fig. 1 metric).
    pub fn xbar_locality(&self) -> f64 {
        self.router_stats.xbar_locality()
    }

    /// Latency reduction of this run relative to `baseline`
    /// (`1 - self/baseline`; 0 when the baseline recorded nothing).
    pub fn latency_reduction_vs(&self, baseline: &SimReport) -> f64 {
        if baseline.avg_latency <= 0.0 {
            0.0
        } else {
            1.0 - self.avg_latency / baseline.avg_latency
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {}: avg latency {:.2} cycles over {} packets \
             (reuse {:.1}%, bypass {:.1}%, {:.1} nJ)",
            self.topology,
            self.traffic,
            self.avg_latency,
            self.measured_delivered,
            self.reusability() * 100.0,
            self.bypass_rate() * 100.0,
            self.energy_pj() / 1000.0
        )
    }
}

/// Applies the energy model to counters, for report construction.
pub fn energy_breakdown_of(counters: &EnergyCounters) -> EnergyBreakdown {
    counters.breakdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_base::{NodeId, PacketClass, PacketId};

    fn delivered(injected_at: u64, delivered_at: u64) -> DeliveredPacket {
        DeliveredPacket {
            id: PacketId::new(0),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            len: 5,
            class: PacketClass::Data,
            injected_at,
            delivered_at,
        }
    }

    #[test]
    fn window_filters_measurement() {
        let mut s = SimStats::new(100, 200);
        s.on_injected(50); // warmup
        s.on_injected(150); // measured
        s.on_injected(250); // after window
        assert_eq!(s.injected_packets, 3);
        assert_eq!(s.measured_injected, 1);
        s.on_delivered(&delivered(50, 160), 2);
        s.on_delivered(&delivered(150, 170), 3);
        assert_eq!(s.delivered_packets, 2);
        assert_eq!(s.measured_delivered, 1);
        assert_eq!(s.avg_latency(), 20.0);
        assert_eq!(s.measured_in_flight(), 0);
        assert_eq!(s.max_latency, 20);
        assert_eq!(s.measured_flits, 5);
        assert_eq!(s.avg_hops(), 3.0, "only the measured packet counts");
    }

    #[test]
    fn avg_latency_zero_when_empty() {
        let s = SimStats::new(0, 10);
        assert_eq!(s.avg_latency(), 0.0);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = LatencyHistogram::default();
        for lat in [1u64, 2, 3, 4, 7, 8, 100] {
            h.record(lat);
        }
        assert_eq!(h.count(), 7);
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        // 1 -> bucket 2; 2,3 -> bucket 4; 4,7 -> bucket 8; 8 -> 16; 100 -> 128.
        assert_eq!(buckets, vec![(2, 1), (4, 2), (8, 2), (16, 1), (128, 1)]);
        assert_eq!(h.quantile_bound(0.5), 8);
        assert_eq!(h.quantile_bound(1.0), 128);
        assert_eq!(LatencyHistogram::default().quantile_bound(0.99), 0);
    }

    #[test]
    fn report_ratios_and_reduction() {
        let mk = |latency: f64| SimReport {
            topology: "mesh".into(),
            traffic: "t".into(),
            cycles: 100,
            avg_latency: latency,
            avg_hops: 2.0,
            p99_latency_bound: 0,
            measured_injected: 10,
            measured_delivered: 10,
            delivered_packets: 10,
            throughput: 0.1,
            router_stats: RouterStats::default(),
            energy: EnergyCounters::default(),
            energy_breakdown: EnergyBreakdown::default(),
            end_to_end_locality: 0.2,
            drained: true,
            final_backlog: 0,
            observability: None,
        };
        let base = mk(40.0);
        let fast = mk(32.0);
        assert!((fast.latency_reduction_vs(&base) - 0.2).abs() < 1e-12);
        assert_eq!(fast.latency_reduction_vs(&mk(0.0)), 0.0);
        assert!(fast.to_string().contains("avg latency"));
    }

    #[test]
    fn report_debug_hides_empty_observability() {
        // The manual Debug impl keeps metrics-off reports byte-identical to
        // the historical derived output (the golden-report guarantee): the
        // `observability` field appears only when populated.
        let mk = |latency: f64| SimReport {
            topology: "mesh".into(),
            traffic: "t".into(),
            cycles: 100,
            avg_latency: latency,
            avg_hops: 2.0,
            p99_latency_bound: 0,
            measured_injected: 10,
            measured_delivered: 10,
            delivered_packets: 10,
            throughput: 0.1,
            router_stats: RouterStats::default(),
            energy: EnergyCounters::default(),
            energy_breakdown: EnergyBreakdown::default(),
            end_to_end_locality: 0.2,
            drained: true,
            final_backlog: 0,
            observability: None,
        };
        let off = mk(40.0);
        assert!(!format!("{off:#?}").contains("observability"));
        assert!(format!("{off:#?}").ends_with("final_backlog: 0,\n}"));
        let mut full = mk(40.0);
        full.observability = Some(crate::metrics::ObservabilityReport::default());
        assert!(format!("{full:#?}").contains("observability: Some("));
    }
}
