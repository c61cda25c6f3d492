//! Quickstart: compare the baseline router against the full pseudo-circuit
//! scheme on uniform-random traffic over an 8×8 mesh.
//!
//! Each row is a [`PointSpec`] — the coordinates `noc run` takes as flags
//! and a campaign spec sweeps as axes — built by the one function all three
//! share. The first row is
//! `noc run --scheme baseline --load 0.05 --seed 2010 --measure 5000 --drain 50000`.
//!
//! Run with: `cargo run --release --example quickstart`

use noc_campaign::{build_simulation, PointSpec};
use noc_sim::MetricsConfig;
use pseudo_circuit::Scheme;

fn main() {
    println!("scheme        load  avg-latency  reduction  reuse%  bypass%");
    for load in [0.05, 0.15, 0.25] {
        let mut baseline_latency = None;
        for scheme in Scheme::paper_lineup() {
            // Omitted coordinates take the `noc run` defaults: uniform-random
            // 5-flit packets on an 8x8 mesh, XY routing, static VA.
            let point = PointSpec {
                scheme,
                load,
                seed: 2010,
                measure: 5_000,
                drain: 50_000,
                ..PointSpec::default()
            };
            let mut sim = build_simulation(&point, MetricsConfig::off()).expect("a legal point");
            let report = sim.run(point.run_spec());
            let base = *baseline_latency.get_or_insert(report.avg_latency);
            println!(
                "{:<13} {:<5.2} {:>10.2}  {:>8.1}%  {:>5.1}%  {:>6.1}%",
                scheme.to_string(),
                load,
                report.avg_latency,
                (1.0 - report.avg_latency / base) * 100.0,
                report.reusability() * 100.0,
                report.bypass_rate() * 100.0,
            );
        }
        println!();
    }
}
