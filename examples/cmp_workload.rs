//! CMP workload example: the paper's own evaluation substrate — a 32-core /
//! 32-bank chip multiprocessor on a 4×4 concentrated mesh with directory
//! coherence traffic and MSHR self-throttling — run against every router
//! configuration.
//!
//! Run with: `cargo run --release --example cmp_workload [benchmark]`
//! (default benchmark: fma3d; try `jbb` for skewed traffic)

use noc_base::{RoutingPolicy, VaPolicy};
use noc_campaign::{build_simulation, PointSpec, SchemeChoice};
use noc_sim::{MetricsConfig, SimReport};
use noc_traffic::BenchmarkProfile;
use pseudo_circuit::Scheme;

fn run(point: &PointSpec) -> SimReport {
    let mut sim = build_simulation(point, MetricsConfig::off()).expect("a legal point");
    sim.run(point.run_spec())
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "fma3d".into());
    let Some(bench) = BenchmarkProfile::by_name(&name) else {
        eprintln!("unknown benchmark {name:?}; available:");
        for p in BenchmarkProfile::suite() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(1);
    };

    // `noc run --topology cmesh4x4 --traffic <bench> --seed 7 --measure 20000
    // --drain 200000`, XY + static VA unless a row says otherwise.
    let cell = PointSpec {
        topology: "cmesh4x4".into(),
        traffic: bench.name.into(),
        seed: 7,
        measure: 20_000,
        drain: 200_000,
        ..PointSpec::default()
    };
    println!(
        "CMP: 32 cores + 32 L2 banks on {}, benchmark {}",
        cell.topology, cell.traffic
    );

    // The paper's strongest baseline: O1TURN + dynamic VA.
    let baseline = run(&PointSpec {
        scheme: SchemeChoice::Pc(Scheme::baseline()),
        routing: RoutingPolicy::O1Turn,
        va: VaPolicy::Dynamic,
        ..cell.clone()
    });
    println!(
        "\nbaseline (O1TURN, dynamic VA): {:.2} cycles over {} packets",
        baseline.avg_latency, baseline.measured_delivered
    );

    println!("\nscheme        latency  reduction  reuse%  header-hit%  energy/flit");
    for scheme in Scheme::paper_lineup() {
        let report = run(&PointSpec {
            scheme: SchemeChoice::Pc(scheme),
            ..cell.clone()
        });
        let per_flit = report.energy_pj() / report.router_stats.flit_traversals.max(1) as f64;
        println!(
            "{:<13} {:>7.2}  {:>8.1}%  {:>5.1}%  {:>10.1}%  {:>8.2} pJ",
            scheme.to_string(),
            report.avg_latency,
            report.latency_reduction_vs(&baseline) * 100.0,
            report.reusability() * 100.0,
            report.router_stats.header_hit_rate() * 100.0,
            per_flit,
        );
    }
}
