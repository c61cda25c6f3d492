//! Engine edge cases: degenerate run specifications, empty traffic, tiny
//! topologies, and report consistency.

mod test_model;

use noc_base::{NodeId, PacketClass, RoutingPolicy, VaPolicy};
use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::Mesh;
use noc_traffic::{PacketRequest, TraceRecord, TraceReplay, TrafficModel};
use std::sync::Arc;
use test_model::WireRouterFactory;

struct Silence;

impl TrafficModel for Silence {
    fn name(&self) -> &str {
        "silence"
    }
    fn generate(&mut self, _cycle: u64, _sink: &mut dyn FnMut(PacketRequest)) {}
}

struct Burst {
    at: u64,
    count: usize,
}

impl TrafficModel for Burst {
    fn name(&self) -> &str {
        "burst"
    }
    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        if cycle == self.at {
            for i in 0..self.count {
                sink(PacketRequest {
                    src: NodeId::new(0),
                    dst: NodeId::new(1 + i % 3),
                    len: 2,
                    class: PacketClass::Data,
                });
            }
        }
    }
}

fn config() -> NetworkConfig {
    NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Dynamic,
        ..NetworkConfig::paper()
    }
}

fn sim(traffic: Box<dyn TrafficModel>) -> Simulation {
    Simulation::new(
        Arc::new(Mesh::new(2, 2, 1)),
        config(),
        traffic,
        &WireRouterFactory::default(),
        1,
    )
}

#[test]
fn idle_network_produces_an_empty_clean_report() {
    let mut s = sim(Box::new(Silence));
    let report = s.run(RunSpec::new(100, 500, 100));
    assert_eq!(report.measured_injected, 0);
    assert_eq!(report.measured_delivered, 0);
    assert_eq!(report.avg_latency, 0.0);
    assert_eq!(report.throughput, 0.0);
    assert!(report.drained);
    assert_eq!(report.final_backlog, 0);
    assert!(report.energy.is_empty());
}

#[test]
fn zero_measure_window_measures_nothing() {
    let mut s = sim(Box::new(Burst { at: 5, count: 4 }));
    let report = s.run(RunSpec::new(50, 0, 100));
    assert_eq!(report.measured_injected, 0);
    assert_eq!(report.throughput, 0.0);
    // Packets still flowed, just unmeasured.
    assert!(report.delivered_packets > 0);
}

#[test]
fn zero_warmup_measures_from_the_first_cycle() {
    let mut s = sim(Box::new(Burst { at: 0, count: 2 }));
    let report = s.run(RunSpec::new(0, 10, 200));
    assert_eq!(report.measured_injected, 2);
    assert_eq!(report.measured_delivered, 2);
}

#[test]
fn zero_drain_reports_undrained_in_flight_packets() {
    // Packets injected in the last measured cycle cannot complete without a
    // drain budget.
    let mut s = sim(Box::new(Burst { at: 9, count: 6 }));
    let report = s.run(RunSpec::new(0, 10, 0));
    assert_eq!(report.measured_injected, 6);
    assert!(!report.drained, "nothing had time to complete");
    assert!(report.measured_delivered < 6);
}

#[test]
fn consecutive_runs_use_fresh_measurement_windows() {
    let mut s = sim(Box::new(Burst { at: 5, count: 3 }));
    let first = s.run(RunSpec::new(0, 50, 200));
    assert_eq!(first.measured_injected, 3);
    // The burst already fired; a second run over the same simulation must
    // observe an idle network, not stale statistics.
    let second = s.run(RunSpec::new(0, 50, 200));
    assert_eq!(second.measured_injected, 0);
    assert!(second.cycles > first.cycles, "cycle counter advances");
}

#[test]
fn single_router_network_works() {
    // 1x1 mesh with two local nodes: pure local switching, no links.
    let topo = Arc::new(Mesh::new(1, 1, 2));
    let mut s = Simulation::new(
        topo,
        config(),
        Box::new(Burst { at: 0, count: 1 }),
        &WireRouterFactory::default(),
        3,
    );
    let report = s.run(RunSpec::new(0, 10, 100));
    assert_eq!(report.measured_delivered, 1);
    assert!(report.drained);
}

#[test]
#[should_panic(expected = "unknown node")]
fn out_of_range_destination_is_rejected() {
    // A traffic model that emits an invalid destination.
    struct Bad;
    impl TrafficModel for Bad {
        fn name(&self) -> &str {
            "bad"
        }
        fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
            if cycle == 0 {
                sink(PacketRequest {
                    src: NodeId::new(0),
                    dst: NodeId::new(999),
                    len: 1,
                    class: PacketClass::Data,
                });
            }
        }
    }
    let mut s = Simulation::new(
        Arc::new(Mesh::new(2, 2, 1)),
        config(),
        Box::new(Bad),
        &WireRouterFactory::default(),
        1,
    );
    let _ = s.run(RunSpec::new(0, 5, 10));
}

#[test]
#[should_panic(expected = "cycle 3: request n7 -> n1 names an unknown node (the topology has 4)")]
fn replayed_record_from_an_unknown_source_is_rejected() {
    // A trace recorded on a larger topology: the source has no interface.
    let record = TraceRecord {
        cycle: 3,
        src: NodeId::new(7),
        dst: NodeId::new(1),
        len: 1,
        class: PacketClass::Data,
    };
    let mut s = sim(Box::new(TraceReplay::new("foreign", vec![record])));
    let _ = s.run(RunSpec::new(0, 5, 10));
}
