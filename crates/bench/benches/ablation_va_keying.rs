//! Ablation — static-VA keying (DESIGN.md §7.3).
//!
//! The paper keys static VC allocation by destination ID "to increase
//! reusability" (§V), citing flow-keyed static allocation [25] as the
//! alternative. This ablation compares destination-keyed static VA against
//! dynamic VA for every scheme, isolating how much of the pseudo-circuit win
//! comes from the allocation policy concentrating same-destination flows
//! onto one VC.

use noc_base::VaPolicy;
use noc_bench::{banner, cmp_point, pct, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use pseudo_circuit::Scheme;

fn main() {
    banner(
        "Ablation",
        "VA keying: destination-keyed static vs dynamic (fma3d, XY)",
    );
    let mut points = Vec::new();
    for va in [VaPolicy::Static, VaPolicy::Dynamic] {
        for scheme in Scheme::paper_lineup() {
            points.push(PointSpec {
                scheme: SchemeChoice::Pc(scheme),
                va,
                seed: 80,
                ..cmp_point("fma3d")
            });
        }
    }
    let reports = run_points(&points);

    let mut table = Table::new(["VA policy", "scheme", "latency", "reuse", "header hits"]);
    for (point, report) in points.iter().zip(&reports) {
        table.row([
            point.va.to_string(),
            point.scheme.label(),
            format!("{:.2}", report.avg_latency),
            pct(report.reusability()),
            pct(report.router_stats.header_hit_rate()),
        ]);
    }
    table.print();
    println!("\nexpected: static VA roughly doubles reuse and header hits vs dynamic");
}
