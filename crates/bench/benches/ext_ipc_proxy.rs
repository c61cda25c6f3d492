//! Extension — closed-loop core-progress proxy (the paper's future work:
//! "integrate our design in a full system simulator to evaluate the overall
//! system performance such as IPC").
//!
//! The CMP model's cores stall when all MSHRs are outstanding; lower network
//! latency returns responses sooner and frees MSHRs earlier. This harness
//! reports the MSHR-stall fraction of active core cycles per scheme — a
//! first-order proxy for the IPC impact the authors deferred to future work.

use noc_bench::{banner, cmp_point, pct, Table};
use noc_campaign::{build_simulation, PointSpec, SchemeChoice};
use noc_sim::MetricsConfig;
use noc_traffic::{BenchmarkProfile, CmpStats, CmpTraffic};
use pseudo_circuit::Scheme;

/// Runs `point` and reads the core-side counters off its traffic model (a
/// report does not carry them).
fn cmp_stats(point: &PointSpec) -> CmpStats {
    let mut sim =
        build_simulation(point, MetricsConfig::off()).unwrap_or_else(|e| panic!("{point}: {e}"));
    let _ = sim.run(point.run_spec());
    sim.traffic_model()
        .as_any()
        .and_then(|any| any.downcast_ref::<CmpTraffic>())
        .map(|cmp| cmp.stats())
        .expect("cmp traffic model exposes stats")
}

fn main() {
    banner(
        "Extension (IPC proxy)",
        "MSHR-stall fraction of active core cycles, per scheme",
    );
    let benches = BenchmarkProfile::suite();
    let schemes = [Scheme::baseline(), Scheme::pseudo(), Scheme::pseudo_ps_bb()];

    let mut points = Vec::new();
    for bench in benches {
        for scheme in schemes {
            points.push(PointSpec {
                scheme: SchemeChoice::Pc(scheme),
                seed: 2016,
                ..cmp_point(bench.name)
            });
        }
    }
    let stats: Vec<CmpStats> = points.iter().map(cmp_stats).collect();

    let mut table = Table::new([
        "benchmark",
        "Baseline stall",
        "Pseudo stall",
        "Pseudo+PS+BB stall",
        "stall cut",
    ]);
    let (mut base_sum, mut full_sum) = (0.0, 0.0);
    for (i, bench) in benches.iter().enumerate() {
        let base = stats[i * 3].stall_fraction();
        let pseudo = stats[i * 3 + 1].stall_fraction();
        let full = stats[i * 3 + 2].stall_fraction();
        base_sum += base;
        full_sum += full;
        let cut = if base > 0.0 { 1.0 - full / base } else { 0.0 };
        table.row([
            bench.name.to_string(),
            pct(base),
            pct(pseudo),
            pct(full),
            pct(cut),
        ]);
    }
    table.print();
    let n = benches.len() as f64;
    println!(
        "\nsuite average: baseline stalls {} of active cycles, full scheme {} — \
         lower network latency frees MSHRs sooner",
        pct(base_sum / n),
        pct(full_sum / n)
    );
}
