//! Per-router observability: metrics levels, pipeline-stage histograms,
//! per-router counter snapshots, and the Chrome-trace event ring.
//!
//! The simulator always produces network-edge aggregates ([`crate::SimStats`]
//! / [`crate::SimReport`]). This module adds the *internal* visibility the
//! paper's figures are actually statements about — per-router pseudo-circuit
//! hit rates, termination causes, buffer-bypass frequency, and per-hop
//! pipeline-stage latencies — behind a [`MetricsLevel`] switch that keeps the
//! default run byte-identical to the historical engine (see
//! `tests/golden_report.rs`).
//!
//! The full contract — every counter's name, unit, increment site, and which
//! paper figure it validates — lives in `docs/METRICS.md`.
//!
//! Layering: this module defines the *data* types (snapshots, histograms,
//! the trace ring) that the engine aggregates; a router model writes its
//! [`RouterObservation`]'s fields in place at each event (the
//! `pseudo-circuit` crate's pipeline kernel and scheme hooks do).

use crate::stats::LatencyHistogram;
use std::fmt;

/// How much observability a run collects.
///
/// - [`Off`](MetricsLevel::Off) — network-edge aggregates only; behaviour
///   and report bytes identical to the pre-observability engine (golden
///   guarantee).
/// - [`Full`](MetricsLevel::Full) — per-router, per-port counters and
///   pipeline-stage histograms are recorded and attached to the report.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum MetricsLevel {
    /// No observability (the default; golden-report compatible).
    #[default]
    Off,
    /// Per-router counters, stage histograms, and manifest router dumps.
    Full,
}

impl MetricsLevel {
    /// Parses the CLI spelling (`off` / `full`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Self::Off),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// The CLI spelling of this level.
    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Full => "full",
        }
    }
}

/// Which routers the event tracer records; each keeps the last
/// [`TRACE_RING_EVENTS`] events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceSpec {
    /// Router indices to trace (empty = trace every router).
    pub routers: Vec<usize>,
}

impl TraceSpec {
    /// Whether `router` is selected by this spec.
    pub fn selects(&self, router: usize) -> bool {
        self.routers.is_empty() || self.routers.contains(&router)
    }
}

/// Observability configuration for one simulation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsConfig {
    /// Counter/histogram collection level.
    pub level: MetricsLevel,
    /// Optional pseudo-circuit lifecycle tracer (independent of `level`).
    pub trace: Option<TraceSpec>,
}

impl MetricsConfig {
    /// The default: no observability, no tracing.
    pub fn off() -> Self {
        Self::default()
    }

    /// Counter collection at `level`, no tracing.
    pub fn level(level: MetricsLevel) -> Self {
        Self { level, trace: None }
    }
}

/// A router pipeline stage, used to key per-stage wait histograms.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PipelineStage {
    /// Buffer residency: cycles between buffer write and crossbar traversal.
    Bw,
    /// Header wait from buffer write to VC-allocation grant.
    Va,
    /// Wait from VA grant (headers) or buffer write (body flits) to the
    /// switch-arbitration grant.
    Sa,
    /// Per-hop router delay: buffer write (or bypass arrival) to crossbar
    /// traversal, inclusive — 3 / 2 / 1 cycles for baseline / reuse / bypass
    /// hops (paper Fig. 6).
    St,
}

/// Per-stage wait histograms (`BW` / `VA` / `SA` / `ST`), reusing the
/// power-of-two [`LatencyHistogram`] buckets of the edge statistics.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StageHistograms {
    /// Buffer-residency waits.
    pub bw: LatencyHistogram,
    /// VA-grant waits (headers only).
    pub va: LatencyHistogram,
    /// SA-grant waits (arbitrated traversals only; reuse skips SA).
    pub sa: LatencyHistogram,
    /// Per-hop router delays.
    pub st: LatencyHistogram,
}

impl StageHistograms {
    /// Records a wait of `cycles` for `stage`.
    pub fn record(&mut self, stage: PipelineStage, cycles: u64) {
        match stage {
            PipelineStage::Bw => self.bw.record(cycles),
            PipelineStage::Va => self.va.record(cycles),
            PipelineStage::Sa => self.sa.record(cycles),
            PipelineStage::St => self.st.record(cycles),
        }
    }

    /// Accumulates another set of histograms into this one.
    pub fn merge(&mut self, other: &StageHistograms) {
        self.bw.merge(&other.bw);
        self.va.merge(&other.va);
        self.sa.merge(&other.sa);
        self.st.merge(&other.st);
    }
}

/// A point-in-time dump of one router's observability counters.
///
/// All per-port vectors are indexed by *input* port except
/// [`restores`](Self::restores), which is per *output* port (speculation is
/// an output-side mechanism, paper §IV.A). Counter semantics and increment
/// sites are specified in `docs/METRICS.md`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouterObservation {
    /// The router this snapshot describes.
    pub router: usize,
    /// Crossbar traversals per input port (flits; denominator for rates).
    pub traversals: Vec<u64>,
    /// Switch-arbitration grants per input port.
    pub sa_grants: Vec<u64>,
    /// VC-allocation grants per input port.
    pub va_grants: Vec<u64>,
    /// Pseudo-circuit hits per input port (flits that skipped SA; includes
    /// buffer-bypassed flits).
    pub pc_hits: Vec<u64>,
    /// Pseudo-circuit creations per input port (a grant configuring a
    /// connection that was not already live).
    pub pc_creations: Vec<u64>,
    /// Buffer bypasses per input port (hits that also skipped BW).
    pub buffer_bypasses: Vec<u64>,
    /// Terminations by conflicting SA grant, per input port (paper §III.C).
    pub term_conflict: Vec<u64>,
    /// Terminations by downstream credit exhaustion, per input port.
    pub term_credit: Vec<u64>,
    /// Speculative circuit restorations per output port (paper §IV.A).
    pub restores: Vec<u64>,
    /// Per-stage wait histograms for this router.
    pub stages: StageHistograms,
}

impl RouterObservation {
    /// Creates a zeroed snapshot for a router with the given port counts.
    pub fn zeroed(router: usize, in_ports: usize, out_ports: usize) -> Self {
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
        }
    }

    /// Total crossbar traversals at this router.
    pub fn total_traversals(&self) -> u64 {
        self.traversals.iter().sum()
    }

    /// Total pseudo-circuit hits at this router.
    pub fn total_hits(&self) -> u64 {
        self.pc_hits.iter().sum()
    }

    /// Pseudo-circuit hit rate (hits / traversals; 0 when no traversals) —
    /// the per-router counterpart of the paper's reusability metric.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_traversals();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }

    /// Total terminations at this router, split `(conflict, credit)`.
    pub fn terminations(&self) -> (u64, u64) {
        (
            self.term_conflict.iter().sum(),
            self.term_credit.iter().sum(),
        )
    }

    /// Total buffer bypasses at this router.
    pub fn total_bypasses(&self) -> u64 {
        self.buffer_bypasses.iter().sum()
    }
}

/// The `--metrics=full` payload attached to a [`crate::SimReport`]: one
/// [`RouterObservation`] per router plus network-wide stage histograms.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObservabilityReport {
    /// Per-router counter snapshots, in router-index order.
    pub routers: Vec<RouterObservation>,
    /// Stage histograms aggregated over every router.
    pub stages: StageHistograms,
}

impl ObservabilityReport {
    /// Assembles the report from per-router snapshots, aggregating stages.
    pub fn from_routers(routers: Vec<RouterObservation>) -> Self {
        let mut stages = StageHistograms::default();
        for r in &routers {
            stages.merge(&r.stages);
        }
        Self { routers, stages }
    }

    /// Network-wide terminations, split `(conflict, credit)`.
    pub fn terminations(&self) -> (u64, u64) {
        self.routers.iter().fold((0, 0), |(c, x), r| {
            let (tc, tx) = r.terminations();
            (c + tc, x + tx)
        })
    }

    /// Network-wide pseudo-circuit hit rate.
    pub fn hit_rate(&self) -> f64 {
        let traversals: u64 = self.routers.iter().map(|r| r.total_traversals()).sum();
        let hits: u64 = self.routers.iter().map(|r| r.total_hits()).sum();
        if traversals == 0 {
            0.0
        } else {
            hits as f64 / traversals as f64
        }
    }
}

/// A router lifecycle event recorded by the tracer (pseudo-circuit or EVC
/// scheme).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceEventKind {
    /// A switch-arbitration grant configured a new circuit (`arg` = output
    /// port).
    Establish,
    /// A live circuit was terminated by a conflicting grant (`arg` = output
    /// port).
    TerminateConflict,
    /// A live circuit was terminated by credit exhaustion (`arg` = output
    /// port).
    TerminateCredit,
    /// A terminated circuit was speculatively restored (`arg` = output
    /// port; the port field holds the restored *input* port).
    Restore,
    /// A buffered flit reused the circuit, skipping SA (`arg` = output
    /// port).
    Hit,
    /// An arriving flit reused the circuit through the bypass latch,
    /// skipping BW and SA (`arg` = output port).
    BypassHit,
    /// An arriving express flit latched straight through without stopping
    /// (EVC scheme, `arg` = output port).
    ExpressLatch,
}

impl TraceEventKind {
    fn name(self) -> &'static str {
        match self {
            Self::Establish => "establish",
            Self::TerminateConflict => "terminate(conflict)",
            Self::TerminateCredit => "terminate(credit)",
            Self::Restore => "restore",
            Self::Hit => "hit",
            Self::BypassHit => "bypass-hit",
            Self::ExpressLatch => "express-latch",
        }
    }
}

/// One recorded tracer event.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Simulation cycle of the event.
    pub cycle: u64,
    /// Input port of the circuit involved.
    pub in_port: u32,
    /// What happened.
    pub kind: TraceEventKind,
    /// Kind-specific argument (currently always the output port).
    pub arg: u32,
}

/// Events a traced router's [`TraceRing`] keeps (oldest overwritten).
pub const TRACE_RING_EVENTS: usize = 4096;

/// A fixed-capacity ring buffer of pseudo-circuit lifecycle events for one
/// router. Recording never allocates after construction; when the ring is
/// full the oldest event is overwritten and [`dropped`](Self::dropped)
/// counts the loss.
#[derive(Clone, Debug)]
pub struct TraceRing {
    router: usize,
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the slot the next event writes (wraps).
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring for `router` holding at most `capacity` events.
    pub fn new(router: usize, capacity: usize) -> Self {
        Self {
            router,
            events: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// The router this ring belongs to.
    pub fn router(&self) -> usize {
        self.router
    }

    /// Records one event, overwriting the oldest when full.
    pub fn record(&mut self, cycle: u64, kind: TraceEventKind, in_port: usize, arg: usize) {
        let event = TraceEvent {
            cycle,
            in_port: in_port as u32,
            kind,
            arg: arg as u32,
        };
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let (wrapped, recent) = self.events.split_at(self.head);
        recent.iter().chain(wrapped.iter())
    }

    /// Appends this ring's events as Chrome-trace JSON objects (one per
    /// line, comma-separated) to `out`. `pid` is the router, `tid` the input
    /// port; timestamps are cycles.
    fn write_chrome_rows(&self, out: &mut String, first: &mut bool) {
        use fmt::Write as _;
        for e in self.iter() {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            let _ = write!(
                out,
                r#"  {{"name":"{}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"out_port":{}}}}}"#,
                e.kind.name(),
                e.cycle,
                self.router,
                e.in_port,
                e.arg
            );
        }
    }
}

/// Merges per-router trace rings into one Chrome-trace-format JSON document
/// (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
pub(crate) fn chrome_trace_json<'a>(rings: impl Iterator<Item = &'a TraceRing>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for ring in rings {
        ring.write_chrome_rows(&mut out, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_level_parses_cli_spellings() {
        assert_eq!(MetricsLevel::parse("off"), Some(MetricsLevel::Off));
        assert_eq!(MetricsLevel::parse("FULL"), Some(MetricsLevel::Full));
        assert_eq!(MetricsLevel::parse("edge"), None);
        assert_eq!(MetricsLevel::parse("verbose"), None);
        assert_eq!(MetricsLevel::Full.name(), "full");
        assert_eq!(MetricsLevel::default(), MetricsLevel::Off);
    }

    #[test]
    fn trace_spec_empty_selects_all() {
        assert!(TraceSpec { routers: vec![] }.selects(7));
        let spec = TraceSpec {
            routers: vec![1, 3],
        };
        assert!(spec.selects(3) && !spec.selects(2));
    }

    #[test]
    fn observation_rates_and_sums() {
        let mut o = RouterObservation::zeroed(5, 2, 3);
        o.traversals = vec![6, 4];
        o.pc_hits = vec![3, 2];
        o.term_conflict = vec![2, 0];
        o.term_credit = vec![0, 1];
        assert_eq!(o.total_traversals(), 10);
        assert!((o.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(o.terminations(), (2, 1));
        assert_eq!(RouterObservation::zeroed(0, 2, 2).hit_rate(), 0.0);
    }

    #[test]
    fn observability_report_aggregates_routers() {
        let mut a = RouterObservation::zeroed(0, 1, 1);
        a.traversals = vec![10];
        a.pc_hits = vec![5];
        a.term_conflict = vec![2];
        a.stages.record(PipelineStage::St, 3);
        let mut b = RouterObservation::zeroed(1, 1, 1);
        b.traversals = vec![10];
        b.pc_hits = vec![0];
        b.term_credit = vec![1];
        b.stages.record(PipelineStage::St, 1);
        let report = ObservabilityReport::from_routers(vec![a, b]);
        assert_eq!(report.terminations(), (2, 1));
        assert!((report.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(report.stages.st.count(), 2);
    }

    #[test]
    fn stage_merge_preserves_buckets() {
        let mut a = StageHistograms::default();
        let mut b = StageHistograms::default();
        for v in [1, 2, 3, 100] {
            b.record(PipelineStage::Sa, v);
        }
        a.merge(&b);
        assert_eq!(a.sa.count(), 4);
        let direct: Vec<_> = b.sa.iter().collect();
        let merged: Vec<_> = a.sa.iter().collect();
        assert_eq!(direct, merged, "merge must land in identical buckets");
    }

    #[test]
    fn stage_merge_is_bucket_wise() {
        // 40 self-merges double one sample to 2^40: a merge that re-records
        // sample by sample could not finish.
        let mut h = StageHistograms::default();
        h.record(PipelineStage::Bw, 5);
        for _ in 0..40 {
            let copy = h.clone();
            h.merge(&copy);
        }
        assert_eq!(h.bw.count(), 1 << 40);
        assert_eq!(h.bw.iter().collect::<Vec<_>>(), vec![(8, 1 << 40)]);
        assert_eq!(h.va.count(), 0);
    }

    #[test]
    fn trace_ring_wraps_and_counts_drops() {
        let mut ring = TraceRing::new(0, 2);
        ring.record(1, TraceEventKind::Establish, 0, 2);
        ring.record(2, TraceEventKind::Hit, 0, 2);
        ring.record(3, TraceEventKind::TerminateConflict, 0, 2);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3], "oldest event overwritten first");
    }

    #[test]
    fn chrome_trace_is_wellformed_json_shape() {
        let mut ring = TraceRing::new(4, 8);
        ring.record(10, TraceEventKind::Establish, 1, 3);
        ring.record(12, TraceEventKind::TerminateCredit, 1, 3);
        let json = chrome_trace_json(std::iter::once(&ring));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"establish\""));
        assert!(json.contains("terminate(credit)"));
        assert!(json.contains("\"pid\":4"));
        assert_eq!(json.matches("\"ts\"").count(), 2);
    }
}
