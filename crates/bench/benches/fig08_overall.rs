//! Fig. 8 — Overall performance on CMP traces.
//!
//! (a) Network-latency reduction per benchmark for Pseudo, Pseudo+PS,
//!     Pseudo+BB and Pseudo+PS+BB, normalized to the strongest baseline
//!     (O1TURN routing + dynamic VA, no pseudo-circuits) — the paper reports
//!     16% average for the full scheme. Each pseudo-circuit configuration
//!     runs at its best policy combination (dimension-order routing + static
//!     VA, §VI.A).
//! (b) Pseudo-circuit reusability per benchmark.

use noc_bench::{banner, cmp_point, pct, reference_baseline, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use noc_traffic::BenchmarkProfile;
use pseudo_circuit::Scheme;

fn main() {
    banner(
        "Fig. 8",
        "overall latency reduction (a) and pseudo-circuit reusability (b)",
    );
    let schemes = [
        Scheme::pseudo(),
        Scheme::pseudo_ps(),
        Scheme::pseudo_bb(),
        Scheme::pseudo_ps_bb(),
    ];
    let benches = BenchmarkProfile::suite();

    // Work list: the baseline plus the four schemes per benchmark.
    let mut points = Vec::new();
    for bench in benches {
        points.push(PointSpec {
            seed: 88,
            ..reference_baseline(bench.name)
        });
        for scheme in schemes {
            points.push(PointSpec {
                scheme: SchemeChoice::Pc(scheme),
                seed: 88,
                ..cmp_point(bench.name)
            });
        }
    }
    let reports = run_points(&points);

    let mut reduction = Table::new([
        "benchmark",
        "Pseudo",
        "Pseudo+PS",
        "Pseudo+BB",
        "Pseudo+PS+BB",
    ]);
    let mut reuse = Table::new([
        "benchmark",
        "Pseudo",
        "Pseudo+PS",
        "Pseudo+BB",
        "Pseudo+PS+BB",
    ]);
    let mut avg_red = [0.0f64; 4];
    let mut avg_reuse = [0.0f64; 4];
    for (i, bench) in benches.iter().enumerate() {
        let base = &reports[i * 5];
        let runs = &reports[i * 5 + 1..i * 5 + 5];
        let mut red_row = vec![bench.name.to_string()];
        let mut reuse_row = vec![bench.name.to_string()];
        for (k, run) in runs.iter().enumerate() {
            let r = run.latency_reduction_vs(base);
            avg_red[k] += r;
            avg_reuse[k] += run.reusability();
            red_row.push(pct(r));
            reuse_row.push(pct(run.reusability()));
        }
        reduction.row(red_row);
        reuse.row(reuse_row);
    }
    let n = benches.len() as f64;
    reduction.row(
        std::iter::once("AVG".to_string())
            .chain(avg_red.iter().map(|r| pct(r / n)))
            .collect::<Vec<_>>(),
    );
    reuse.row(
        std::iter::once("AVG".to_string())
            .chain(avg_reuse.iter().map(|r| pct(r / n)))
            .collect::<Vec<_>>(),
    );

    println!("\n(a) network latency reduction vs baseline (O1TURN + dynamic VA):");
    reduction.print();
    println!("\npaper: ~16% average with Pseudo+PS+BB\n");
    println!("(b) pseudo-circuit reusability:");
    reuse.print();
}
