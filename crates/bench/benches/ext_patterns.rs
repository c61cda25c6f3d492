//! Extension — scheme robustness across additional synthetic patterns.
//!
//! Beyond the paper's UR/BC/BP, this sweeps tornado, nearest-neighbor and
//! hotspot traffic at low and medium load. Expectation: the neighbor pattern
//! (perfectly repetitive single-hop flows) approaches the reuse ceiling;
//! hotspot traffic concentrates circuits on the hot ports; tornado behaves
//! like UR on a mesh.

use noc_base::{NodeId, RoutingPolicy, VaPolicy};
use noc_bench::{banner, parallel_map, pct, run_points, synth_point, Table, SYNTH_PHASES};
use noc_campaign::{PointSpec, SchemeChoice};
use noc_sim::{NetworkConfig, Simulation};
use noc_topology::{Mesh, SharedTopology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

const LOADS: [f64; 2] = [0.08, 0.20];
const SEED: u64 = 31;

fn main() {
    banner(
        "Extension (patterns)",
        "tornado / neighbor / hotspot traffic on an 8x8 mesh (XY + static VA)",
    );
    let schemes = [Scheme::baseline(), Scheme::pseudo_ps_bb()];

    let mut points = Vec::new();
    for pattern in ["tornado", "neighbor"] {
        for load in LOADS {
            for scheme in schemes {
                points.push(PointSpec {
                    scheme: SchemeChoice::Pc(scheme),
                    seed: SEED,
                    ..synth_point(pattern, load)
                });
            }
        }
    }
    let mut reports = run_points(&points);

    // A hotspot pattern carries a node list, which the traffic vocabulary
    // cannot name: these rows are built at object level, on the mesh,
    // configuration, phases and seed `synth_point` gives the rows above.
    let topo: SharedTopology = Arc::new(Mesh::new(8, 8, 1));
    let config = NetworkConfig {
        routing: RoutingPolicy::Xy,
        va_policy: VaPolicy::Static,
        ..NetworkConfig::paper()
    };
    let hotspot = SyntheticPattern::Hotspot {
        fraction: 0.2,
        spots: [18, 21, 42, 45].map(NodeId::new).to_vec(),
    };
    let mut cells = Vec::new();
    for load in LOADS {
        for scheme in schemes {
            cells.push((load, scheme));
        }
    }
    reports.extend(parallel_map(&cells, |&(load, scheme)| {
        let traffic = SyntheticTraffic::new(hotspot.clone(), 8, 8, 5, load, SEED);
        let factory = PcRouterFactory::new(scheme);
        Simulation::new(topo.clone(), config, Box::new(traffic), &factory, SEED).run(SYNTH_PHASES)
    }));

    let mut table = Table::new([
        "pattern",
        "load",
        "baseline lat",
        "pseudo lat",
        "reduction",
        "reuse",
    ]);
    for (row, pair) in reports.chunks(2).enumerate() {
        let (base, full) = (&pair[0], &pair[1]);
        table.row([
            ["TOR", "NBR", "HOT(4@20%)"][row / LOADS.len()].to_string(),
            format!("{:.0}%", LOADS[row % LOADS.len()] * 100.0),
            format!("{:.1}", base.avg_latency),
            format!("{:.1}", full.avg_latency),
            pct(full.latency_reduction_vs(base)),
            pct(full.reusability()),
        ]);
    }
    table.print();
}
