//! Fig. 12 — Load–latency curves under synthetic traffic.
//!
//! Three panels (uniform random, bit complement, bit permutation/transpose)
//! on an 8×8 mesh with XY routing + static VA and 5-flit packets, sweeping
//! offered load for the five router configurations. Paper shape: ~11%
//! latency improvement at low load for UR and BP, ~6% for BC, and a
//! rightward shift of the saturation knee with the pseudo-circuit schemes.

use noc_bench::{banner, pct, run_points, synth_point, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use pseudo_circuit::Scheme;

fn main() {
    banner(
        "Fig. 12",
        "synthetic load-latency: UR / BC / BP on an 8x8 mesh (XY + static VA)",
    );
    let schemes = Scheme::paper_lineup();
    let loads = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45];

    for pattern in ["ur", "bc", "bp"] {
        let mut points = Vec::new();
        for &load in &loads {
            for scheme in schemes {
                points.push(PointSpec {
                    scheme: SchemeChoice::Pc(scheme),
                    seed: 12,
                    ..synth_point(pattern, load)
                });
            }
        }
        let reports = run_points(&points);

        let mut table = Table::new([
            "load",
            "Baseline",
            "Pseudo",
            "Pseudo+PS",
            "Pseudo+BB",
            "Pseudo+PS+BB",
            "improv.",
        ]);
        for (i, &load) in loads.iter().enumerate() {
            let row_reports = &reports[i * schemes.len()..(i + 1) * schemes.len()];
            let mut row = vec![format!("{:.0}%", load * 100.0)];
            for r in row_reports {
                // A run that failed to drain is saturated: mark it.
                if r.drained && r.final_backlog < 100 {
                    row.push(format!("{:.1}", r.avg_latency));
                } else {
                    row.push(format!("{:.0}*", r.avg_latency));
                }
            }
            let improvement = row_reports[4].latency_reduction_vs(&row_reports[0]);
            row.push(pct(improvement));
            table.row(row);
        }
        println!(
            "\n{} (avg packet latency, cycles; * = saturated):",
            pattern.to_ascii_uppercase()
        );
        table.print();
    }
    println!("\npaper shape: ~11% low-load gain for UR/BP, ~6% for BC; knee shifts right");
}
