//! Ablation — virtual-channel count sensitivity (DESIGN.md §7.4).
//!
//! Sweeps VCs per port for the baseline and full scheme. Expectation: more
//! VCs reduce head-of-line blocking for both routers but *dilute* static-VA
//! pseudo-circuit reuse (destinations spread over more VCs, so the stored
//! input-VC matches less often).

use noc_bench::{banner, cmp_point, pct, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use pseudo_circuit::Scheme;

fn main() {
    banner("Ablation", "VC count sweep (fma3d, XY + static VA)");
    let vc_counts = [2u8, 4, 8];

    let mut points = Vec::new();
    for &vcs in &vc_counts {
        for scheme in [Scheme::baseline(), Scheme::pseudo_ps_bb()] {
            points.push(PointSpec {
                scheme: SchemeChoice::Pc(scheme),
                vcs,
                seed: 78,
                ..cmp_point("fma3d")
            });
        }
    }
    let reports = run_points(&points);

    let mut table = Table::new(["VCs", "baseline lat", "pseudo lat", "reduction", "reuse"]);
    for (i, &vcs) in vc_counts.iter().enumerate() {
        let base = &reports[i * 2];
        let full = &reports[i * 2 + 1];
        table.row([
            vcs.to_string(),
            format!("{:.2}", base.avg_latency),
            format!("{:.2}", full.avg_latency),
            pct(full.latency_reduction_vs(base)),
            pct(full.reusability()),
        ]);
    }
    table.print();
}
