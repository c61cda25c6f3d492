//! Fig. 14 — Comparison with Express Virtual Channels.
//!
//! Two panels: an 8×8 mesh and a 4×4 concentrated mesh, per benchmark,
//! showing EVC (dynamic, l_max = 2, 2 EVCs + 2 NVCs) and Pseudo+PS+BB
//! normalized to the baseline router on the same topology (XY + dynamic VA,
//! matching EVC's requirements). Paper shape: EVC helps on the mesh but not
//! on the CMesh (short dimensions starve the express channels and halve the
//! usable VCs), while the pseudo-circuit scheme is topology-independent.

use noc_base::VaPolicy;
use noc_bench::{banner, cmp_point, run_points, Table};
use noc_campaign::{PointSpec, SchemeChoice};
use noc_traffic::BenchmarkProfile;
use pseudo_circuit::Scheme;

fn main() {
    banner(
        "Fig. 14",
        "EVC vs Pseudo+PS+BB on mesh and concentrated mesh (XY + dynamic VA)",
    );
    let benches = BenchmarkProfile::suite();
    let routers = [
        SchemeChoice::Pc(Scheme::baseline()),
        SchemeChoice::Evc,
        SchemeChoice::Pc(Scheme::pseudo_ps_bb()),
    ];
    for (panel, topology) in [
        ("(a) 8x8 Mesh", "mesh8x8"),
        ("(b) 4x4 Concentrated Mesh", "cmesh4x4"),
    ] {
        let mut points = Vec::new();
        for bench in benches {
            for scheme in routers {
                points.push(PointSpec {
                    topology: topology.into(),
                    scheme,
                    va: VaPolicy::Dynamic,
                    seed: 41,
                    ..cmp_point(bench.name)
                });
            }
        }
        let reports = run_points(&points);
        let mut table = Table::new(["benchmark", "Baseline", "EVC", "Pseudo+PS+BB"]);
        let (mut evc_sum, mut pc_sum) = (0.0, 0.0);
        for (i, bench) in benches.iter().enumerate() {
            let base = reports[i * 3].avg_latency;
            let evc = reports[i * 3 + 1].avg_latency / base;
            let pc = reports[i * 3 + 2].avg_latency / base;
            evc_sum += evc;
            pc_sum += pc;
            table.row([
                bench.name.to_string(),
                "1.00".to_string(),
                format!("{evc:.2}"),
                format!("{pc:.2}"),
            ]);
        }
        let n = benches.len() as f64;
        table.row([
            "AVG".to_string(),
            "1.00".to_string(),
            format!("{:.2}", evc_sum / n),
            format!("{:.2}", pc_sum / n),
        ]);
        println!("\n{panel} (latency normalized to the baseline router):");
        table.print();
    }
    println!("\npaper shape: EVC < 1 on the mesh, ~>= 1 on the CMesh; Pseudo < 1 on both");
}
