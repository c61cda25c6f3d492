//! Ablation — packet-size sensitivity (DESIGN.md §7.4).
//!
//! Uniform-random traffic at fixed flit load with 1-, 5- and 9-flit packets.
//! Expectation: single-flit packets benefit most (every flit is a header, so
//! the header hit rate equals the flit reuse rate and buffer bypassing can
//! fire on every packet); long packets amortize the pipeline over the
//! serialization tail, shrinking the relative gain.

use noc_bench::{banner, pct, run_points, synth_point, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use pseudo_circuit::Scheme;

fn main() {
    banner("Ablation", "packet size sweep (UR @ 0.15 flits/node/cycle)");
    let sizes = [1u16, 5, 9];

    let mut points = Vec::new();
    for &len in &sizes {
        for scheme in [Scheme::baseline(), Scheme::pseudo_ps_bb()] {
            points.push(PointSpec {
                scheme: SchemeChoice::Pc(scheme),
                packet: len,
                seed: 79,
                ..synth_point("ur", 0.15)
            });
        }
    }
    let reports = run_points(&points);

    let mut table = Table::new([
        "packet",
        "baseline lat",
        "pseudo lat",
        "reduction",
        "reuse",
        "bypass",
    ]);
    for (i, &len) in sizes.iter().enumerate() {
        let base = &reports[i * 2];
        let full = &reports[i * 2 + 1];
        table.row([
            format!("{len} flits"),
            format!("{:.2}", base.avg_latency),
            format!("{:.2}", full.avg_latency),
            pct(full.latency_reduction_vs(base)),
            pct(full.reusability()),
            pct(full.bypass_rate()),
        ]);
    }
    table.print();
}
