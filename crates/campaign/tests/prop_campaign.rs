//! Property tests for campaign expansion: for arbitrary valid axes the
//! expansion is deterministic, duplicate-free, exactly the cartesian
//! product's size, and ordered by the documented fixed nesting. And for
//! hostile bytes: a damaged cache entry or spec file ends in `Ok` or a
//! one-line `Err`, never a panic.

use noc_campaign::{Axes, CampaignSpec, PointResult, PointSpec, ResultCache};
use proptest::prelude::*;
use pseudo_circuit::Scheme;

/// A duplicate-free, non-empty subset of `values` selected by a bitmask
/// (mask 0 — or any mask missing every index — falls back to the full set,
/// so every draw is a valid axis).
fn pick<T: Clone>(values: &[T], mask: u64) -> Vec<T> {
    let chosen: Vec<T> = values
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v.clone())
        .collect();
    if chosen.is_empty() {
        values.to_vec()
    } else {
        chosen
    }
}

fn arb_spec() -> impl Strategy<Value = CampaignSpec> {
    proptest::collection::vec(any::<u64>(), 7).prop_map(|masks| CampaignSpec {
        axes: Axes {
            topology: pick(
                &[
                    "mesh2x2".to_string(),
                    "mesh3x2".to_string(),
                    "mesh2x4".to_string(),
                ],
                masks[0],
            ),
            traffic: pick(
                &["ur".to_string(), "bc".to_string(), "tornado".to_string()],
                masks[1],
            ),
            scheme: pick(&Scheme::ALL, masks[2]),
            vcs: pick(&[1u8, 2, 4], masks[3]),
            buffer: pick(&[2u32, 4], masks[4]),
            load: pick(&[0.02f64, 0.05, 0.1, 0.2], masks[5]),
            seed: pick(&[1u64, 2, 7], masks[6]),
            ..Axes::default()
        },
        ..CampaignSpec::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn expansion_is_deterministic_and_duplicate_free(spec in arb_spec()) {
        let points = spec.expand();
        // Exactly the product size, and identical on re-expansion.
        prop_assert_eq!(points.len(), spec.num_points());
        prop_assert_eq!(&points, &spec.expand());
        // No two points share all coordinates.
        for (i, p) in points.iter().enumerate() {
            prop_assert!(
                !points[..i].contains(p),
                "duplicate point in expansion: {}", p
            );
        }
    }

    #[test]
    fn expansion_order_is_the_documented_nesting(spec in arb_spec()) {
        // Reconstruct the expected order from the axes and compare — the
        // fixed nesting (topology outermost, seed innermost) is a documented
        // contract because cache keys and reports rely on stable point
        // identity, not position.
        let points = spec.expand();
        let a = &spec.axes;
        let mut expected = Vec::new();
        for topology in &a.topology {
            for traffic in &a.traffic {
                for &scheme in &a.scheme {
                    for &vcs in &a.vcs {
                        for &buffer in &a.buffer {
                            for &load in &a.load {
                                for &seed in &a.seed {
                                    expected.push((
                                        topology.clone(),
                                        traffic.clone(),
                                        scheme,
                                        vcs,
                                        buffer,
                                        load.to_bits(),
                                        seed,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        let actual: Vec<_> = points
            .iter()
            .map(|p| (
                p.topology.clone(),
                p.traffic.clone(),
                p.scheme,
                p.vcs,
                p.buffer,
                p.load.to_bits(),
                p.seed,
            ))
            .collect();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn damaged_cache_entries_are_misses_not_panics(edits in arb_edits()) {
        let valid = sample_result();
        let bytes = mutate(valid.to_json().into_bytes(), &edits);
        let parsed = PointResult::from_json(&String::from_utf8_lossy(&bytes));
        if let Err(e) = &parsed {
            prop_assert!(!e.0.contains('\n'), "{}", e);
        }
        let dir = std::env::temp_dir().join(format!("noc-campaign-hostile-{}", std::process::id()));
        let cache = ResultCache::open(&dir, &valid.git_rev).unwrap();
        std::fs::write(cache.entry_path(&valid.config_hash), &bytes).unwrap();
        if let Some(hit) = cache.lookup(&valid.config_hash) {
            prop_assert_eq!(&hit.config_hash, &valid.config_hash);
            prop_assert!(parsed.is_ok());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_specs_parse_or_fail_in_one_line(edits in arb_edits()) {
        let bytes = mutate(SPEC.as_bytes().to_vec(), &edits);
        if let Err(e) = CampaignSpec::parse_toml_str(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(!e.0.contains('\n'), "{}", e);
        }
    }
}

/// A spec that sets every key the schema knows.
const SPEC: &str = "\
name = \"hostile\"  # comment
[phases]
warmup = 50
measure = 200
drain = 2000
[axes]
topology = [\"mesh2x2\", \"ring4\"]
traffic = \"ur\"
scheme = [\"baseline\", \"pseudo+ps+bb\", \"evc\"]
routing = \"xy\"
va = [\"static\", \"dynamic\"]
vcs = [2, 4]
buffer = 4
packet = 2
load = [0.02, 0.05]
seed = [1, 18446744073709551615]
";

fn sample_result() -> PointResult {
    PointResult {
        spec: PointSpec::default(),
        config_hash: "00ddba11c0ffee00".into(),
        git_rev: "hostile".into(),
        topology_name: "mesh-8x8".into(),
        traffic_name: "uniform@0.10".into(),
        cycles: 111_000,
        avg_latency: 21.5,
        p99_latency: 64,
        avg_hops: 5.25,
        throughput: 0.0987,
        measured_injected: 12_800,
        measured_delivered: 12_800,
        reusability: 1.0 / 3.0,
        bypass_rate: 0.125,
        energy_pj: 98_765.4,
        flit_traversals: 64_000,
        header_hit_rate: 0.25,
        xbar_locality: 0.375,
        end_to_end_locality: 0.1875,
        drained: true,
    }
}

/// Up to six edits: (kind, position, byte).
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..5, any::<usize>(), any::<u8>()), 1..6)
}

/// Applies the edits: flip bits of a byte, insert a byte, delete a byte,
/// truncate, or prefix the document with `[` nesting — shallow, or far
/// past any reader's recursion budget.
fn mutate(mut text: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let at = at % (text.len() + 1);
        match kind {
            0 if at < text.len() => text[at] ^= byte.max(1),
            1 => text.insert(at, byte),
            2 if at < text.len() => drop(text.remove(at)),
            3 => text.truncate(at),
            4 => {
                let depth = if byte % 2 == 0 {
                    100_000
                } else {
                    usize::from(byte)
                };
                text.splice(0..0, std::iter::repeat_n(b'[', depth));
            }
            _ => {}
        }
    }
    text
}
