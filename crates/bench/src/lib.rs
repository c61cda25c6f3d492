#![warn(missing_docs)]

//! Shared utilities for the figure/table harnesses.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper (see DESIGN.md §6 for the index) by running the cycle-accurate
//! simulator and printing the same rows/series the paper plots. Absolute
//! numbers come from our substrate, not the authors' testbed; the *shape*
//! (who wins, by roughly what factor) is the reproduction target —
//! EXPERIMENTS.md records the comparison.
//!
//! A sweep harness is "build [`PointSpec`]s → [`run_points`] → print": every
//! cell of a figure is a campaign point, so `noc run` with the flags of that
//! point (or a campaign spec listing it) reproduces the cell — including
//! with a run manifest (`--manifest`), a longer window (`--measure`) or more
//! seeds (a campaign `seed` axis). Phases and seeds are fixed here so the
//! printed tables are the ones EXPERIMENTS.md records. `NOC_THREADS` caps
//! the sweep worker count (default: all CPUs).

use noc_base::{RoutingPolicy, VaPolicy};
use noc_campaign::{prepare, run_point, PointSpec, SchemeChoice};
use noc_sim::{RunSpec, SimReport};
use pseudo_circuit::Scheme;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Warmup / measure / drain cycles for closed-loop CMP runs.
pub const CMP_PHASES: RunSpec = RunSpec {
    warmup: 1_000,
    measure: 10_000,
    drain: 200_000,
};

/// Warmup / measure / drain cycles for open-loop synthetic runs.
pub const SYNTH_PHASES: RunSpec = RunSpec {
    warmup: 1_000,
    measure: 8_000,
    drain: 80_000,
};

/// Runs `f` over `items` on the process-global worker pool
/// ([`noc_base::pool::global`]), preserving order. Items are claimed
/// dynamically, so a sweep whose points have wildly different runtimes (a
/// saturated config next to a light one) stays load-balanced; results land
/// in index-keyed slots, so ordering is independent of which worker ran
/// what. The thread budget is the host's
/// ([`noc_base::pool::host_threads`]: every CPU, capped by `NOC_THREADS`).
///
/// The pool is shared with the simulation engine's sharded cycle loop: a
/// sweep point that itself runs a multi-threaded simulation executes its
/// shards inline on whichever thread runs the sweep point — a pool worker
/// or the submitting thread itself — so nested submissions never deadlock.
///
/// # Panics
///
/// Panics when `NOC_THREADS` is set to anything but a positive integer.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let threads = noc_base::pool::host_threads().unwrap_or_else(|e| panic!("{e}"));
    noc_base::pool::global().run_limited(items.len(), threads, &|i| {
        let value = f(&items[i]);
        *slots[i].lock().expect("a slot has one writer") = Some(value);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot has one writer")
                .expect("the pool ran every index")
        })
        .collect()
}

/// Runs every point to completion on the worker pool ([`parallel_map`]),
/// each through the campaign's own path ([`prepare`] then [`run_point`] —
/// what `noc run` with the point's flags executes), and returns the reports
/// in input order.
///
/// # Panics
///
/// Panics, naming the point, if one is not a legal campaign point — a
/// harness lists fixed points, so that is a bug in the harness.
pub fn run_points(points: &[PointSpec]) -> Vec<SimReport> {
    parallel_map(points, |point| {
        prepare(point)
            .and_then(|prepared| run_point(&prepared))
            .unwrap_or_else(|e| panic!("{point}: {e}"))
    })
}

/// The coordinates every CMP figure cell shares: benchmark `bench` on the
/// paper's 4×4 concentrated mesh at [`CMP_PHASES`]. Harnesses fill in the
/// rest (scheme, routing, VA policy, seed, ...) with struct-update syntax.
pub fn cmp_point(bench: &str) -> PointSpec {
    PointSpec {
        topology: "cmesh4x4".into(),
        traffic: bench.into(),
        warmup: CMP_PHASES.warmup,
        measure: CMP_PHASES.measure,
        drain: CMP_PHASES.drain,
        ..PointSpec::default()
    }
}

/// The coordinates every synthetic figure cell shares: `pattern` at offered
/// load `load` on the 8×8 mesh with XY routing, static VA and 5-flit
/// packets (the `noc run` defaults), at [`SYNTH_PHASES`].
pub fn synth_point(pattern: &str, load: f64) -> PointSpec {
    PointSpec {
        topology: "mesh8x8".into(),
        traffic: pattern.into(),
        load,
        warmup: SYNTH_PHASES.warmup,
        measure: SYNTH_PHASES.measure,
        drain: SYNTH_PHASES.drain,
        ..PointSpec::default()
    }
}

/// The paper's reference baseline for Fig. 8: O1TURN routing with dynamic VC
/// allocation, no pseudo-circuits ("the best performance in the baseline
/// system", §VI.A).
pub fn reference_baseline(bench: &str) -> PointSpec {
    PointSpec {
        scheme: SchemeChoice::Pc(Scheme::baseline()),
        routing: RoutingPolicy::O1Turn,
        va: VaPolicy::Dynamic,
        ..cmp_point(bench)
    }
}

/// A fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders with aligned columns. An empty table (no headers) renders as
    /// an empty string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        if cols == 0 {
            return String::new();
        }
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[c]);
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints the standard harness banner.
pub fn banner(figure: &str, what: &str) {
    println!("==============================================================");
    println!("{figure}: {what}");
    println!("(fixed phases and seeds: any row is `noc run` + the flags of its point)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer-name", "2.5"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert_eq!(widths[0], widths[2], "header and row width match");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map(&[0u64; 0], |&x| x), Vec::<u64>::new());
        // Fewer items than threads: excess workers simply never join.
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
        assert_eq!(parallel_map(&[1u64, 2, 3], |&x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.163), "16.3%");
        assert_eq!(pct(-0.05), "-5.0%");
    }

    #[test]
    fn empty_table_renders_empty() {
        let t = Table::new(Vec::<String>::new());
        assert_eq!(t.render(), "");
    }

    #[test]
    fn run_points_is_the_campaign_path_in_input_order() {
        // One tiny point per scheme family. Each report must be exactly what
        // the campaign engine (and so `noc run` with the point's flags)
        // produces for that point, at the index it was listed.
        let points: Vec<PointSpec> = ["pseudo+ps+bb", "evc", "hybrid"]
            .into_iter()
            .zip([0.05, 0.08, 0.11])
            .map(|(scheme, load)| PointSpec {
                topology: "mesh4x4".into(),
                scheme: SchemeChoice::parse(scheme).unwrap(),
                load,
                packet: 2,
                warmup: 50,
                measure: 300,
                drain: 3_000,
                ..PointSpec::default()
            })
            .collect();
        let reports = run_points(&points);
        assert_eq!(reports.len(), points.len());
        for (point, report) in points.iter().zip(&reports) {
            let direct = run_point(&prepare(point).unwrap()).unwrap();
            assert_eq!(format!("{report:?}"), format!("{direct:?}"), "{point}");
            assert!(report.drained, "{point}");
        }
        assert_ne!(format!("{:?}", reports[0]), format!("{:?}", reports[1]));
    }

    #[test]
    fn reference_baseline_is_a_legal_campaign_point_for_the_whole_suite() {
        for profile in noc_traffic::BenchmarkProfile::suite() {
            let point = reference_baseline(profile.name);
            let prepared = prepare(&point).unwrap_or_else(|e| panic!("{point}: {e}"));
            assert_eq!(prepared.traffic_name, profile.name);
            assert_eq!(point.run_spec(), CMP_PHASES);
            assert_eq!(point.scheme.canonical(), "baseline");
        }
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        let text = t.render();
        assert!(text.lines().count() == 3);
    }
}
