//! Property-based integration tests: for arbitrary small configurations and
//! sub-saturation loads, every measured packet is delivered exactly once and
//! conservation laws hold across the network.

use noc_base::{RoutingPolicy, VaPolicy};
use noc_campaign::{build_simulation, PointSpec, SchemeChoice};
use noc_sim::{MetricsConfig, NetworkConfig, RunSpec, Simulation};
use noc_topology::{Mesh, SharedTopology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use proptest::prelude::*;
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::baseline()),
        Just(Scheme::pseudo()),
        Just(Scheme::pseudo_ps()),
        Just(Scheme::pseudo_bb()),
        Just(Scheme::pseudo_ps_bb()),
    ]
}

fn routing_strategy() -> impl Strategy<Value = RoutingPolicy> {
    prop_oneof![
        Just(RoutingPolicy::Xy),
        Just(RoutingPolicy::Yx),
        Just(RoutingPolicy::O1Turn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_measured_packets_delivered_exactly_once(
        w in 2u16..5,
        h in 2u16..5,
        scheme in scheme_strategy(),
        routing in routing_strategy(),
        va in prop_oneof![Just(VaPolicy::Static), Just(VaPolicy::Dynamic)],
        load in 0.02f64..0.15,
        len in 1u16..6,
        seed in 0u64..1_000,
    ) {
        let topo: SharedTopology = Arc::new(Mesh::new(w, h, 1));
        let traffic = SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            w as usize,
            h as usize,
            len,
            load,
            seed,
        );
        let config = NetworkConfig {
            routing,
            va_policy: va,
            ..NetworkConfig::paper()
        };
        let factory = PcRouterFactory::new(scheme);
        let report = Simulation::new(topo, config, Box::new(traffic), &factory, seed ^ 0xabc)
            .run(RunSpec::new(200, 1_000, 30_000));
        prop_assert!(report.drained, "packets stuck at load {load}");
        prop_assert_eq!(report.measured_injected, report.measured_delivered);
        // Conservation: flit traversals >= delivered flits (each flit crosses
        // at least the destination router).
        let delivered_flits = report.measured_delivered * len as u64;
        prop_assert!(report.router_stats.flit_traversals >= delivered_flits);
        // Latency sanity: at least inject + router + eject.
        if report.measured_delivered > 0 {
            prop_assert!(report.avg_latency >= 3.0, "latency {}", report.avg_latency);
        }
    }

    #[test]
    fn pseudo_circuit_never_hurts_at_low_load(
        seed in 0u64..200,
        load in 0.02f64..0.10,
    ) {
        // `noc run --topology mesh4x4 --load <load> --seed <seed>` (uniform
        // random, 5-flit packets, XY + static VA) under each scheme.
        let run = |scheme| {
            let point = PointSpec {
                topology: "mesh4x4".into(),
                scheme: SchemeChoice::Pc(scheme),
                load,
                seed,
                warmup: 200,
                measure: 1_500,
                drain: 30_000,
                ..PointSpec::default()
            };
            let mut sim = build_simulation(&point, MetricsConfig::off()).unwrap();
            sim.run(point.run_spec())
        };
        let base = run(Scheme::baseline());
        let full = run(Scheme::pseudo_ps_bb());
        // Identical traffic, so a strict improvement is expected; allow a
        // small tolerance for arbitration noise.
        prop_assert!(
            full.avg_latency <= base.avg_latency * 1.01,
            "pseudo {} vs baseline {}",
            full.avg_latency,
            base.avg_latency
        );
    }
}
