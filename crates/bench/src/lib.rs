#![warn(missing_docs)]

//! Shared utilities for the figure/table harnesses.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper that is not a sweep (DESIGN.md §6 has the index; the sweeps are the
//! campaign specs under `figures/`, checked by `tests/figures.rs`). A
//! harness that simulates runs its fixed [`PointSpec`]s one after another
//! with [`run`], so `noc run` with the flags of a point reproduces its row.

use noc_campaign::{prepare, run_point, PointSpec};
use noc_sim::SimReport;
use std::fmt::Write as _;

/// Runs `point` the way `noc run` with its flags does ([`prepare`] then
/// [`run_point`]).
///
/// # Panics
///
/// Panics, naming the point, if it is not a legal campaign point (a bug in
/// the harness that lists it).
pub fn run(point: &PointSpec) -> SimReport {
    prepare(point)
        .and_then(|prepared| run_point(&prepared))
        .unwrap_or_else(|e| panic!("{point}: {e}"))
}

/// The coordinates every CMP figure cell shares: benchmark `bench` on the
/// paper's 4×4 concentrated mesh, over a 10 000-cycle window. Harnesses fill
/// in the rest (scheme, routing, VA policy, seed, ...) with struct-update
/// syntax.
pub fn cmp_point(bench: &str) -> PointSpec {
    PointSpec {
        topology: "cmesh4x4".into(),
        traffic: bench.into(),
        warmup: 1_000,
        measure: 10_000,
        drain: 200_000,
        ..PointSpec::default()
    }
}

/// The coordinates every synthetic figure cell shares: `pattern` at offered
/// load `load` on the 8×8 mesh with XY routing, static VA and 5-flit
/// packets (the `noc run` defaults), over an 8 000-cycle window.
pub fn synth_point(pattern: &str, load: f64) -> PointSpec {
    PointSpec {
        topology: "mesh8x8".into(),
        traffic: pattern.into(),
        load,
        warmup: 1_000,
        measure: 8_000,
        drain: 80_000,
        ..PointSpec::default()
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
    fn render(&self) -> String {
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
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        let text = t.render();
        assert!(text.lines().count() == 3);
    }
}
