//! Fig. 9 — Network latency reduction by routing algorithm and VA policy.
//!
//! Four panels (Pseudo, Pseudo+PS, Pseudo+BB, Pseudo+PS+BB), each showing
//! per-benchmark latency reduction for {static, dynamic} VA × {XY, YX,
//! O1TURN}, normalized to the baseline system (O1TURN + dynamic VA, no
//! pseudo-circuits). The paper's findings to reproduce: DOR + static VA wins
//! in most benchmarks; jbb prefers O1TURN due to its skewed traffic.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_bench::{banner, cmp_point, pct, reference_baseline, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use noc_traffic::BenchmarkProfile;
use pseudo_circuit::Scheme;

const COMBOS: [(VaPolicy, RoutingPolicy); 6] = [
    (VaPolicy::Static, RoutingPolicy::Xy),
    (VaPolicy::Static, RoutingPolicy::Yx),
    (VaPolicy::Static, RoutingPolicy::O1Turn),
    (VaPolicy::Dynamic, RoutingPolicy::Xy),
    (VaPolicy::Dynamic, RoutingPolicy::Yx),
    (VaPolicy::Dynamic, RoutingPolicy::O1Turn),
];

fn combo_label(va: VaPolicy, routing: RoutingPolicy) -> String {
    let va = match va {
        VaPolicy::Static => "St",
        VaPolicy::Dynamic => "Dy",
    };
    format!("{va}-{routing}")
}

fn main() {
    banner(
        "Fig. 9",
        "latency reduction per scheme x benchmark x (VA policy, routing)",
    );
    let benches = BenchmarkProfile::suite();
    let schemes = [
        ("(a) Pseudo", Scheme::pseudo()),
        ("(b) Pseudo+PS", Scheme::pseudo_ps()),
        ("(c) Pseudo+BB", Scheme::pseudo_bb()),
        ("(d) Pseudo+PS+BB", Scheme::pseudo_ps_bb()),
    ];

    // Baselines once per benchmark.
    let baselines: Vec<PointSpec> = benches
        .iter()
        .map(|bench| PointSpec {
            seed: 88,
            ..reference_baseline(bench.name)
        })
        .collect();
    let baselines = run_points(&baselines);

    for (title, scheme) in schemes {
        let mut points = Vec::new();
        for bench in benches {
            for (va, routing) in COMBOS {
                points.push(PointSpec {
                    scheme: SchemeChoice::Pc(scheme),
                    routing,
                    va,
                    seed: 88,
                    ..cmp_point(bench.name)
                });
            }
        }
        let reports = run_points(&points);
        let mut table = Table::new(
            std::iter::once("benchmark".to_string())
                .chain(COMBOS.iter().map(|&(va, r)| combo_label(va, r)))
                .collect::<Vec<_>>(),
        );
        let mut sums = [0.0f64; 6];
        for (i, bench) in benches.iter().enumerate() {
            let base = &baselines[i];
            let mut row = vec![bench.name.to_string()];
            for k in 0..6 {
                let r = reports[i * 6 + k].latency_reduction_vs(base);
                sums[k] += r;
                row.push(pct(r));
            }
            table.row(row);
        }
        let n = benches.len() as f64;
        table.row(
            std::iter::once("AVG".to_string())
                .chain(sums.iter().map(|s| pct(s / n)))
                .collect::<Vec<_>>(),
        );
        println!("\n{title}:");
        table.print();
    }
    println!("\npaper shape: static VA + DOR best overall; jbb favors O1TURN");
}
