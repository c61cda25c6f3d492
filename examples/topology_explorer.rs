//! Topology explorer: run the same CMP workload on mesh, concentrated mesh,
//! MECS and flattened butterfly, with and without pseudo-circuits — the
//! paper's §VII.A argument that the scheme is topology-independent.
//!
//! Run with: `cargo run --release --example topology_explorer`

use noc_campaign::{build_simulation, build_topology, PointSpec};
use noc_sim::MetricsConfig;
use noc_topology::average_min_hops;
use pseudo_circuit::Scheme;

fn main() {
    println!("topology      avg-hops  baseline  pseudo+ps+bb  gain");
    let mut mesh_baseline = None;
    for topology in ["mesh8x8", "cmesh4x4", "mecs4x4", "fbfly4x4"] {
        // `noc run --topology <topology> --traffic fma3d --seed 11
        // --measure 15000 --drain 150000` (XY + static VA) per scheme.
        let run = |scheme: Scheme| {
            let point = PointSpec {
                topology: topology.into(),
                traffic: "fma3d".into(),
                scheme,
                seed: 11,
                measure: 15_000,
                drain: 150_000,
                ..PointSpec::default()
            };
            let mut sim = build_simulation(&point, MetricsConfig::off()).expect("a legal point");
            sim.run(point.run_spec())
        };
        let base = run(Scheme::baseline());
        let full = run(Scheme::pseudo_ps_bb());
        let reference = *mesh_baseline.get_or_insert(base.avg_latency);
        let topo = build_topology(topology).expect("a preset name");
        println!(
            "{:<13} {:>7.2}  {:>8.2}  {:>12.2}  {:>4.1}%   (vs mesh baseline: {:.1}%)",
            topo.name(),
            average_min_hops(topo.as_ref()),
            base.avg_latency,
            full.avg_latency,
            full.latency_reduction_vs(&base) * 100.0,
            (1.0 - full.avg_latency / reference) * 100.0,
        );
    }
    println!("\nthe pseudo-circuit gain appears on every topology (paper §VII.A);");
    println!("combining it with a hop-reducing topology compounds the reduction");
}
