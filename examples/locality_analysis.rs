//! Locality analysis: measures the two communication temporal localities of
//! the paper's Fig. 1 (end-to-end and crossbar connection) across the
//! benchmark suite, plus the resulting pseudo-circuit hit rates — the
//! motivation chain of the paper in one run.
//!
//! Run with: `cargo run --release --example locality_analysis`

use noc_campaign::{build_simulation, PointSpec};
use noc_sim::MetricsConfig;
use noc_traffic::BenchmarkProfile;

fn main() {
    println!("benchmark      end-to-end  crossbar  reuse(flits)  header-hits");
    let (mut e2e, mut xbar, mut reuse, mut hits) = (0.0, 0.0, 0.0, 0.0);
    let suite = BenchmarkProfile::suite();
    for bench in suite {
        // `noc run --topology cmesh4x4 --traffic <bench> --seed 21`: the
        // full scheme, XY + static VA and the 10k-cycle window are defaults.
        let point = PointSpec {
            topology: "cmesh4x4".into(),
            traffic: bench.name.into(),
            seed: 21,
            ..PointSpec::default()
        };
        let mut sim = build_simulation(&point, MetricsConfig::off()).expect("a legal point");
        let report = sim.run(point.run_spec());
        e2e += report.end_to_end_locality;
        xbar += report.xbar_locality();
        reuse += report.reusability();
        hits += report.router_stats.header_hit_rate();
        println!(
            "{:<14} {:>9.1}%  {:>7.1}%  {:>11.1}%  {:>10.1}%",
            bench.name,
            report.end_to_end_locality * 100.0,
            report.xbar_locality() * 100.0,
            report.reusability() * 100.0,
            report.router_stats.header_hit_rate() * 100.0,
        );
    }
    let n = suite.len() as f64;
    println!(
        "{:<14} {:>9.1}%  {:>7.1}%  {:>11.1}%  {:>10.1}%",
        "AVG",
        e2e / n * 100.0,
        xbar / n * 100.0,
        reuse / n * 100.0,
        hits / n * 100.0
    );
    println!("\ncrossbar-connection locality exceeds end-to-end locality — the");
    println!("headroom the pseudo-circuit scheme converts into reuse (paper Fig. 1)");
}
