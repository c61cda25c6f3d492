//! Property-based tests for the base types.

use noc_base::rng::Pcg32;
use noc_base::{
    Flit, FlitKind, FlitPool, FlitRef, NodeId, PacketClass, PacketDescriptor, PacketId, VcPartition,
};
use proptest::prelude::*;

/// One call into a [`FlitPool`], as the engine makes them.
#[derive(Copy, Clone, Debug)]
enum PoolOp {
    /// `try_alloc` on a shard (the parallel phase's allocation).
    Alloc(usize),
    /// `alloc_serial` (test harnesses and serial drivers).
    AllocSerial,
    /// `free` of the live flit picked by the index (modulo the live count).
    Free(usize),
    /// `replenish(shard, target)` (the driver's per-cycle top-up).
    Replenish(usize, usize),
    /// `reclaim_locals` (a re-shard).
    Reclaim,
}

const POOL_SHARDS: usize = 3;

/// Allocations and frees four times as likely as a serial allocation or a
/// re-shard, top-ups in between.
fn pool_op() -> impl Strategy<Value = PoolOp> {
    (0usize..12, 0..POOL_SHARDS, any::<usize>(), 0usize..6).prop_map(
        |(kind, shard, pick, target)| match kind {
            0..=3 => PoolOp::Alloc(shard),
            4 => PoolOp::AllocSerial,
            5..=8 => PoolOp::Free(pick),
            9..=10 => PoolOp::Replenish(shard, target),
            _ => PoolOp::Reclaim,
        },
    )
}

/// `Pcg32::next_bool` as it is defined: compare a 53-bit uniform `f64`.
fn reference_bool(rng: &mut Pcg32, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    rng.next_f64() < p
}

const TWO_POW_53: f64 = (1u64 << 53) as f64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The high-word `next_bool` makes the decision of the `f64` definition
    /// and leaves the generator in the same state, for every shape of `p`
    /// the exactness argument (rng module docs) has a clause for.
    #[test]
    fn next_bool_is_the_f64_compare_and_consumes_the_same_stream(
        seed in any::<u64>(),
        stream in any::<u64>(),
        warm in 0usize..8,
        kind in 0usize..5,
        raw in any::<u64>(),
        delta in 0u64..5,
    ) {
        let mut fast = Pcg32::seed_with_stream(seed, stream);
        for _ in 0..warm {
            fast.next_u32();
        }
        let mut slow = fast.clone();
        let p = match kind {
            // Any multiple of 2^-53 in [0, 1).
            0 => (raw >> 11) as f64 / TWO_POW_53,
            // Any positive float below 1, subnormals included.
            1 => f64::from_bits(raw % 1.0f64.to_bits()),
            // The edges: within an ulp of 0 and of 1, outside (0, 1), NaN.
            2 => [
                f64::from_bits(1),
                f64::from_bits(2),
                f64::MIN_POSITIVE,
                f64::from_bits(1.0f64.to_bits() - 1),
                1.0,
                f64::from_bits(1.0f64.to_bits() + 1),
                0.0,
                -0.0,
                -f64::MIN_POSITIVE,
                f64::NAN,
            ][(raw % 10) as usize],
            // k * 2^-53 and one ulp either side of it (below 1/2 an ulp is finer
            // than 2^-53, so p * 2^53 has a fraction for `ceil` to round), for
            // k around a drawn threshold T, or around the 53 bits about to be
            // drawn: a forced tie, T >> 21 equal to the high word and T's low
            // 21 bits at, just below or just above the low word's, so the
            // first draw is decided by the low output.
            _ => {
                let k = if kind == 3 { raw >> 11 } else { fast.clone().next_u64() >> 11 };
                let around = (k + delta).saturating_sub(2) as f64 / TWO_POW_53;
                match raw & 3 {
                    0 => f64::from_bits(around.to_bits().saturating_sub(1)),
                    1 => f64::from_bits(around.to_bits() + 1),
                    _ => around,
                }
            }
        };
        for draw in 0..16 {
            prop_assert_eq!(
                fast.next_bool(p),
                reference_bool(&mut slow, p),
                "draw {} at p = {:e} ({:#x})", draw, p, p.to_bits()
            );
            prop_assert_eq!(&fast, &slow, "state after draw {} at p = {:e}", draw, p);
        }
    }

    /// `skip_false` is the scalar loop `while n < max && !next_bool(p)` in
    /// count and final state, over the same shapes of `p`, with a tie forced
    /// at any of the next eight draws, inside a four-draw round or at its
    /// edge.
    #[test]
    fn skip_false_is_the_scalar_next_bool_loop(
        seed in any::<u64>(),
        stream in any::<u64>(),
        max in 0usize..300,
        kind in 0usize..6,
        raw in any::<u64>(),
        delta in 0u64..5,
        tie_at in 0usize..8,
    ) {
        let mut fast = Pcg32::seed_with_stream(seed, stream);
        let mut slow = fast.clone();
        let p = match kind {
            0 => [0.0, 1.0, f64::NAN, -1.0, 2.0][(raw % 5) as usize],
            // Subnormals and the smallest normals: T = 1, `T >> 21` = 0.
            1 => f64::from_bits(raw % (f64::MIN_POSITIVE.to_bits() * 2)),
            // 1 − ε and its neighbours: every high word is at or below `T >> 21`.
            2 => f64::from_bits(1.0f64.to_bits() - 1 - raw % 4),
            // Loads a synthetic source draws at: one round in four or fewer
            // holds a hit.
            3 => (raw % 1000) as f64 / 16_000.0,
            // k·2^-53 ± 1 ulp for a drawn k, or for the 53 bits of the draw
            // `tie_at` ahead: a forced tie there.
            _ => {
                let k = if kind == 4 {
                    raw >> 11
                } else {
                    let mut ahead = fast.clone();
                    for _ in 0..tie_at {
                        ahead.next_u64();
                    }
                    ahead.next_u64() >> 11
                };
                let around = (k + delta).saturating_sub(2) as f64 / TWO_POW_53;
                match raw & 3 {
                    0 => f64::from_bits(around.to_bits().saturating_sub(1)),
                    1 => f64::from_bits(around.to_bits() + 1),
                    _ => around,
                }
            }
        };
        for call in 0..3 {
            let mut n = 0;
            while n < max && !slow.next_bool(p) {
                n += 1;
            }
            prop_assert_eq!(
                fast.skip_false(p, max),
                n,
                "call {} at p = {:e} ({:#x}), max {}", call, p, p.to_bits(), max
            );
            prop_assert_eq!(&fast, &slow, "state after call {} at p = {:e}", call, p);
        }
    }
}

proptest! {
    #[test]
    fn next_below_always_in_range(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn next_f64_unit_interval(seed in any::<u64>()) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..64 {
            let v = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..64)) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        rng.shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }

    #[test]
    fn weighted_only_picks_positive(seed in any::<u64>(), weights in prop::collection::vec(0.0f64..10.0, 1..32)) {
        let mut rng = Pcg32::seed_from_u64(seed);
        if let Some(i) = rng.next_weighted(&weights) {
            prop_assert!(weights[i] > 0.0);
        } else {
            prop_assert!(weights.iter().all(|&w| w <= 0.0));
        }
    }

    #[test]
    fn streams_are_independent_of_each_other(seed in any::<u64>(), s1 in 0u64..1000, s2 in 0u64..1000) {
        prop_assume!(s1 != s2);
        let mut a = Pcg32::seed_with_stream(seed, s1);
        let mut b = Pcg32::seed_with_stream(seed, s2);
        let va: Vec<u32> = (0..32).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..32).map(|_| b.next_u32()).collect();
        prop_assert_ne!(va, vb);
    }

    #[test]
    fn flit_kinds_partition_every_packet(len in 1u16..64) {
        let desc = PacketDescriptor {
            id: PacketId::new(1),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            len,
            class: PacketClass::Data,
            created_at: 0,
        };
        let mut heads = 0;
        let mut tails = 0;
        for seq in 0..len {
            let f = desc.flit(seq);
            if f.kind.is_head() {
                heads += 1;
                prop_assert_eq!(seq, 0);
            }
            if f.kind.is_tail() {
                tails += 1;
                prop_assert_eq!(seq, len - 1);
            }
            if len == 1 {
                prop_assert_eq!(f.kind, FlitKind::Single);
            }
        }
        prop_assert_eq!((heads, tails), (1, 1));
    }

    #[test]
    fn static_vc_stays_in_class(vcs_pow in 1u32..4, classes_pow in 0u32..2, dst in 0usize..4096) {
        let classes = 1u8 << classes_pow;
        let total = classes * (1u8 << vcs_pow);
        let p = VcPartition::new(total, classes);
        for class in 0..classes {
            let vc = p.static_vc(class, NodeId::new(dst));
            let range = p.class_range(class);
            prop_assert!(range.contains(&(vc.index() as u8)));
            prop_assert_eq!(p.class_of_vc(vc), class);
        }
    }
}

proptest! {
    /// The pool's free list — a bump mark plus a LIFO of recycled slots —
    /// under any interleaving of the calls the engine makes: no live slot is
    /// handed out twice, every slot is live or free, live flits read back
    /// what was written, and the mark (one past the highest index ever
    /// issued) never passes the most slots that were out of the global list
    /// at once — live ones plus the shard stacks' stock. That last property
    /// is what keeps live flits dense at the bottom of a slab reserved for a
    /// structural maximum the run never approaches: the capacity here is
    /// far above anything the drawn sequences use, as it is in a simulation.
    #[test]
    fn pool_free_list_stays_dense_and_exact(ops in prop::collection::vec(pool_op(), 1..300)) {
        const CAPACITY: usize = 1 << 16;
        let pool = FlitPool::new(CAPACITY, POOL_SHARDS);
        let mut live: Vec<(FlitRef, u16)> = Vec::new();
        let mut next_tag = 0u16;
        let mut peak_out = 0;
        for op in ops {
            let flit = Flit { seq: next_tag, ..noc_base::arena::placeholder_flit() };
            let fresh = match op {
                PoolOp::Alloc(shard) => pool.try_alloc(shard, flit),
                PoolOp::AllocSerial => Some(pool.alloc_serial(flit)),
                PoolOp::Free(pick) => {
                    if !live.is_empty() {
                        pool.free(live.swap_remove(pick % live.len()).0);
                    }
                    None
                }
                PoolOp::Replenish(shard, target) => {
                    pool.replenish(shard, target);
                    None
                }
                PoolOp::Reclaim => {
                    pool.reclaim_locals();
                    None
                }
            };
            if let Some(r) = fresh {
                prop_assert!(
                    live.iter().all(|&(l, _)| l.index() != r.index()),
                    "{:?} handed out while live", r
                );
                prop_assert!(r.index() < pool.issued(), "{:?} is past the mark", r);
                live.push((r, next_tag));
                next_tag = next_tag.wrapping_add(1);
            }
            prop_assert_eq!(pool.total_free() + live.len(), pool.capacity());
            let stocked = pool.total_free() - pool.global_free();
            peak_out = peak_out.max(live.len() + stocked);
            prop_assert!(
                pool.issued() <= peak_out,
                "the mark is at {} but at most {} slots were ever out at once",
                pool.issued(),
                peak_out
            );
            for &(r, tag) in &live {
                prop_assert_eq!(pool.get(r).seq, tag, "live flit body corrupted");
            }
        }
    }
}
