//! Fig. 13 — Impact on various topologies.
//!
//! fma3d CMP traffic with DOR (XY) + static VA on a mesh, concentrated mesh,
//! MECS, and flattened butterfly, for all five router configurations —
//! normalized to the baseline router on the 8×8 mesh. Paper shape: the
//! pseudo-circuit scheme reduces per-hop delay on *every* topology (it is
//! topology-independent), and combining it with a hop-reducing topology
//! yields more than 50% latency reduction versus the mesh baseline.

use noc_bench::{banner, cmp_point, pct, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use pseudo_circuit::Scheme;

fn main() {
    banner(
        "Fig. 13",
        "pseudo-circuit on mesh / CMesh / MECS / FBFLY (fma3d, XY + static VA)",
    );
    let topologies = [
        ("Mesh", "mesh8x8"),
        ("CMesh", "cmesh4x4"),
        ("MECS", "mecs4x4"),
        ("FBFLY", "fbfly4x4"),
    ];
    let schemes = Scheme::paper_lineup();

    let mut points = Vec::new();
    for (_, topology) in topologies {
        for scheme in schemes {
            points.push(PointSpec {
                topology: topology.into(),
                scheme: SchemeChoice::Pc(scheme),
                seed: 13,
                ..cmp_point("fma3d")
            });
        }
    }
    let reports = run_points(&points);

    let mesh_baseline = reports[0].avg_latency;
    let mut table = Table::new([
        "topology",
        "H_avg",
        "Baseline",
        "Pseudo",
        "Pseudo+PS",
        "Pseudo+BB",
        "Pseudo+PS+BB",
        "gain on topo",
    ]);
    for (t, (name, _)) in topologies.iter().enumerate() {
        let row_reports = &reports[t * schemes.len()..(t + 1) * schemes.len()];
        let mut row = vec![name.to_string(), format!("{:.2}", row_reports[0].avg_hops)];
        for r in row_reports {
            row.push(format!("{:.2}", r.avg_latency / mesh_baseline));
        }
        row.push(pct(row_reports[4].latency_reduction_vs(&row_reports[0])));
        table.row(row);
    }
    println!("\nlatency normalized to the mesh baseline (lower is better):");
    table.print();
    // The paper's SVII latency model: T = H_avg * t_router + D * t_link +
    // T_ser. In this engine link traversal overlaps the downstream buffer
    // write (a flit emitted at ST is written downstream the next cycle), so
    // the zero-load estimate is T = 1 (injection) + 3 * (H_avg + 1 routers)
    // + T_ser, with T_ser ~ 2.4 for the CMP's packet-length mix.
    println!("\nSVII latency-model cross-check (baseline router, zero-load estimate):");
    for (t, (name, _)) in topologies.iter().enumerate() {
        let r = &reports[t * schemes.len()];
        let model = 1.0 + (r.avg_hops + 1.0) * 3.0 + 2.4;
        println!(
            "  {name:<6} measured {:>6.2}  model {:>6.2}  (queueing/contention = {:+.2})",
            r.avg_latency,
            model,
            r.avg_latency - model
        );
    }
    let best = reports
        .iter()
        .map(|r| r.avg_latency)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nbest combination vs mesh baseline: {} reduction \
         (paper: > 50% when combining the scheme with hop-reducing topologies)",
        pct(1.0 - best / mesh_baseline)
    );
}
