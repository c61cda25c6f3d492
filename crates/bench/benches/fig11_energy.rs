//! Fig. 11 — Normalized router energy consumption.
//!
//! Two panels (XY and YX routing, static VA), per benchmark, for the four
//! pseudo-circuit schemes, normalized to the baseline router on the same
//! routing/VA combination. Paper shape: Pseudo and Pseudo+PS save almost
//! nothing (arbiter energy is 0.24% of the router); buffer bypassing saves
//! bypass_rate x 23.6% by eliminating buffer reads and writes on bypassed
//! flits (bounded by the 23.4% buffer share of Table II).

use noc_base::RoutingPolicy;
use noc_bench::{banner, cmp_point, pct, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use noc_traffic::BenchmarkProfile;
use pseudo_circuit::Scheme;

fn main() {
    banner(
        "Fig. 11",
        "normalized router energy per benchmark (static VA)",
    );
    let benches = BenchmarkProfile::suite();
    let schemes = Scheme::paper_lineup();
    for (panel, routing) in [("(a) XY", RoutingPolicy::Xy), ("(b) YX", RoutingPolicy::Yx)] {
        let mut points = Vec::new();
        for bench in benches {
            for scheme in schemes {
                points.push(PointSpec {
                    scheme: SchemeChoice::Pc(scheme),
                    routing,
                    seed: 424,
                    ..cmp_point(bench.name)
                });
            }
        }
        let reports = run_points(&points);
        let mut table = Table::new([
            "benchmark",
            "Pseudo",
            "Pseudo+PS",
            "Pseudo+BB",
            "Pseudo+PS+BB",
        ]);
        let mut sums = [0.0f64; 4];
        for (i, bench) in benches.iter().enumerate() {
            // Normalize per delivered flit so closed-loop throughput
            // differences between runs do not contaminate the comparison.
            let per_flit = |r: &noc_sim::SimReport| {
                r.energy_pj() / r.router_stats.flit_traversals.max(1) as f64
            };
            let base = per_flit(&reports[i * 5]);
            let mut row = vec![bench.name.to_string()];
            for k in 0..4 {
                let e = per_flit(&reports[i * 5 + 1 + k]) / base;
                sums[k] += e;
                row.push(pct(e));
            }
            table.row(row);
        }
        let n = benches.len() as f64;
        table.row(
            std::iter::once("AVG".to_string())
                .chain(sums.iter().map(|s| pct(s / n)))
                .collect::<Vec<_>>(),
        );
        println!("\n{panel} (energy relative to baseline on the same policies):");
        table.print();
    }
    println!(
        "\npaper shape: ~100% without BB (arbiters are 0.24% of router energy);\n\
         buffer bypassing saves bypass_rate x 23.6% — the buffer share of Table II\n\
         bounds any saving at 23.4% (the paper's exact percentage is lost to OCR)"
    );
}
