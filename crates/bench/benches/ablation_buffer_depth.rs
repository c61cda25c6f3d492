//! Ablation — input-buffer depth sensitivity (DESIGN.md §7.4).
//!
//! Sweeps the per-VC buffer depth for the baseline and the full scheme on
//! fma3d CMP traffic. Expectation: deeper buffers reduce credit stalls for
//! both routers; the pseudo-circuit advantage persists at every depth, and
//! shallower buffers trigger more credit-exhaustion terminations.

use noc_bench::{banner, cmp_point, pct, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use pseudo_circuit::Scheme;

fn main() {
    banner("Ablation", "buffer depth sweep (fma3d, XY + static VA)");
    let depths = [2u32, 4, 8, 16];

    let mut points = Vec::new();
    for &depth in &depths {
        for scheme in [Scheme::baseline(), Scheme::pseudo_ps_bb()] {
            points.push(PointSpec {
                scheme: SchemeChoice::Pc(scheme),
                buffer: depth,
                seed: 77,
                ..cmp_point("fma3d")
            });
        }
    }
    let reports = run_points(&points);

    let mut table = Table::new([
        "depth",
        "baseline lat",
        "pseudo lat",
        "reduction",
        "reuse",
        "credit terms",
    ]);
    for (i, &depth) in depths.iter().enumerate() {
        let base = &reports[i * 2];
        let full = &reports[i * 2 + 1];
        table.row([
            format!("{depth} flits"),
            format!("{:.2}", base.avg_latency),
            format!("{:.2}", full.avg_latency),
            pct(full.latency_reduction_vs(base)),
            pct(full.reusability()),
            full.router_stats.pc_terminations_credit.to_string(),
        ]);
    }
    table.print();
}
