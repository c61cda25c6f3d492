//! Property test for the quiescence-driven fast-forward path (DESIGN.md
//! §15): fast-forwarding must be invisible — a skipped cycle is provably a
//! no-op, so the full `SimReport` (stats, latency histogram, energy,
//! locality) is identical with the optimization on and off for any synthetic
//! workload. (The kernel's accessors are checked against their scalar index
//! model by the pipeline module's own tests in `crates/core`.)

use noc_sim::{NetworkConfig, RunSpec, Simulation};
use noc_topology::{Mesh, SharedTopology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use proptest::prelude::*;
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::baseline()),
        Just(Scheme::pseudo()),
        Just(Scheme::pseudo_ps_bb()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fast-forward on/off produce byte-identical reports (compared through
    /// the same `Debug` rendering the golden files pin). Loads reach down to
    /// 0.005 so many runs actually hit quiescent stretches.
    #[test]
    fn fast_forward_on_off_reports_are_identical(
        w in 2u16..5,
        h in 2u16..5,
        scheme in scheme_strategy(),
        load in 0.005f64..0.08,
        len in 1u16..6,
        seed in 0u64..1_000,
    ) {
        let topo: SharedTopology = Arc::new(Mesh::new(w, h, 1));
        let run = |fast_forward: bool| {
            let traffic = SyntheticTraffic::new(
                SyntheticPattern::UniformRandom,
                w as usize,
                h as usize,
                len,
                load,
                seed,
            );
            let mut sim = Simulation::new(
                topo.clone(),
                NetworkConfig::paper(),
                Box::new(traffic),
                &PcRouterFactory::new(scheme),
                seed ^ 0x5eed,
            );
            sim.set_fast_forward(fast_forward);
            sim.run(RunSpec::new(100, 800, 20_000))
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(format!("{on:#?}"), format!("{off:#?}"));
    }
}
