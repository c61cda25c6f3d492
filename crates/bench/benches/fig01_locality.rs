//! Fig. 1 — Communication temporal locality comparison.
//!
//! The paper's motivating measurement: end-to-end locality (consecutive
//! packets from a source to the same destination) is ~22% on average, while
//! crossbar-connection locality (consecutive flits through the same input
//! port taking the same output port) rises to ~31% — the headroom the
//! pseudo-circuit scheme exploits.

use noc_base::VaPolicy;
use noc_bench::{banner, cmp_point, pct, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use noc_traffic::BenchmarkProfile;
use pseudo_circuit::Scheme;

fn main() {
    banner(
        "Fig. 1",
        "communication temporal locality: end-to-end vs crossbar connection",
    );
    let points: Vec<PointSpec> = BenchmarkProfile::suite()
        .iter()
        .map(|bench| PointSpec {
            scheme: SchemeChoice::Pc(Scheme::baseline()),
            va: VaPolicy::Dynamic,
            seed: 2010,
            ..cmp_point(bench.name)
        })
        .collect();
    let reports = run_points(&points);

    let mut table = Table::new(["benchmark", "end-to-end", "crossbar connection"]);
    let (mut e2e_sum, mut xbar_sum) = (0.0, 0.0);
    for (point, report) in points.iter().zip(&reports) {
        e2e_sum += report.end_to_end_locality;
        xbar_sum += report.xbar_locality();
        table.row([
            point.traffic.clone(),
            pct(report.end_to_end_locality),
            pct(report.xbar_locality()),
        ]);
    }
    let n = reports.len() as f64;
    table.row(["AVG".to_string(), pct(e2e_sum / n), pct(xbar_sum / n)]);
    table.print();
    println!("\npaper: ~22% end-to-end, ~31% crossbar-connection on average");
}
