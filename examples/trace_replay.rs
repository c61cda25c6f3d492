//! Trace record & replay: mirrors the paper's methodology — extract a packet
//! trace from the CMP workload once, then replay the *identical* trace
//! through different router configurations for a perfectly controlled
//! comparison (closed-loop runs would adapt their injection to the router).
//!
//! A trace replay is a traffic model the `PointSpec` vocabulary cannot name,
//! so this example assembles its simulations from objects
//! (`Simulation::new`), the level below `noc_campaign::build_simulation`.
//!
//! Run with: `cargo run --release --example trace_replay [path]`
//! (optionally writes the trace to `path` in the line format and reads the
//! file back, checking it against the records)

use noc_base::{RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::{Mesh, SharedTopology};
use noc_traffic::{trace, BenchmarkProfile, CmpTraffic, TraceRecorder, TraceReplay};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::sync::Arc;

fn main() {
    let topo: SharedTopology = Arc::new(Mesh::new(4, 4, 4));
    let bench = *BenchmarkProfile::by_name("equake").expect("profile exists");
    let equake = CmpTraffic::for_topology(topo.as_ref(), bench, 3).expect("cmesh floorplan");
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };

    // Phase 1: record a trace by running the closed-loop CMP model through
    // the baseline router (responses react to real network timing).
    println!("recording equake trace through the baseline router...");
    let mut sim = Simulation::new(
        topo.clone(),
        config,
        Box::new(TraceRecorder::new(equake)),
        &PcRouterFactory::new(Scheme::baseline()),
        1,
    );
    for _ in 0..20_000 {
        sim.step();
    }
    // The recorder is the simulation's traffic model: downcast to read it.
    let records = sim
        .traffic_model()
        .as_any()
        .and_then(|model| model.downcast_ref::<TraceRecorder<CmpTraffic>>())
        .expect("the traffic model is the recorder")
        .records()
        .to_vec();
    println!(
        "captured {} packet injections over 20k cycles",
        records.len()
    );

    if let Some(path) = std::env::args().nth(1) {
        let file = File::create(&path).expect("create trace file");
        let mut writer = BufWriter::new(file);
        trace::write_trace(&mut writer, &records).expect("write trace");
        writer.flush().expect("flush trace file");
        let file = File::open(&path).expect("reopen trace file");
        let reread = trace::read_trace(BufReader::new(file)).expect("parse trace file");
        assert_eq!(reread, records, "the file replays what was recorded");
        println!("trace written to {path} and read back identically");
    }

    // Phase 2: replay the identical trace through every configuration.
    println!("\nscheme        latency  reduction  reuse%");
    let mut baseline = None;
    for scheme in Scheme::paper_lineup() {
        let replay = TraceReplay::new("equake-trace", records.clone());
        let factory = PcRouterFactory::new(scheme);
        let report = Simulation::new(topo.clone(), config, Box::new(replay), &factory, 1)
            .run(RunSpec::new(1_000, 15_000, 150_000));
        let base = *baseline.get_or_insert(report.avg_latency);
        println!(
            "{:<13} {:>7.2}  {:>8.1}%  {:>5.1}%",
            scheme.to_string(),
            report.avg_latency,
            (1.0 - report.avg_latency / base) * 100.0,
            report.reusability() * 100.0,
        );
    }
}
