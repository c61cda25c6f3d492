//! Property test: no synthetic pattern addresses a packet to its own source,
//! on any grid shape — including the shapes where a pattern has fixed points
//! (odd×odd bit complement, one-column neighbor and tornado, transpose's
//! diagonal, a hotspot drawn by itself).

use noc_base::NodeId;
use noc_traffic::{SyntheticPattern, SyntheticTraffic, TrafficModel};
use proptest::prelude::*;

fn pattern(index: usize, nodes: usize) -> SyntheticPattern {
    match index {
        0 => SyntheticPattern::UniformRandom,
        1 => SyntheticPattern::BitComplement,
        2 => SyntheticPattern::Transpose,
        3 => SyntheticPattern::Tornado,
        4 => SyntheticPattern::Neighbor,
        _ => SyntheticPattern::Hotspot {
            fraction: 0.5,
            spots: vec![NodeId::new(0), NodeId::new(nodes / 2)],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_pattern_sends_to_its_own_source(
        index in 0usize..6,
        cols in 1usize..=7,
        rows in 1usize..=7,
        seed in any::<u64>(),
    ) {
        prop_assume!(cols * rows >= 2);
        // Transpose is defined on square grids only.
        prop_assume!(index != 2 || cols == rows);
        let pattern = pattern(index, cols * rows);
        let label = pattern.label();
        // Load 1 with one-flit packets: every node sends every cycle.
        let mut traffic = SyntheticTraffic::new(pattern, cols, rows, 1, 1.0, seed);
        let mut self_sent = 0usize;
        for cycle in 0..20 {
            traffic.generate(cycle, &mut |r| self_sent += usize::from(r.src == r.dst));
        }
        prop_assert_eq!(self_sent, 0, "{} on {}x{} self-addressed", label, cols, rows);
    }
}
