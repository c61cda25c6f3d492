//! Property-based tests of the microarchitecture building blocks against
//! reference models.

use noc_base::{Flit, FlitPool, FlitRef};
use noc_sim::blocks::FifoBank;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A work-conserving round-robin arbiter over `n` requesters, one `bool` at
/// a time: the behavioural reference [`noc_base::BitArbiter`] is tested
/// against (it lived in `noc_sim::blocks` while routers still ran on it).
#[derive(Clone, Debug)]
struct RrArbiter {
    next: usize,
    n: usize,
}

impl RrArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        Self { next: 0, n }
    }

    /// Grants one of the requesting indices (where `requests[i]` is true),
    /// rotating priority so the winner moves to lowest priority.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != n`.
    fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector size mismatch");
        for offset in 0..self.n {
            let i = (self.next + offset) % self.n;
            if requests[i] {
                self.next = (i + 1) % self.n;
                return Some(i);
            }
        }
        None
    }

    /// The rotating-priority pointer: the equivalence tests compare this
    /// state, not just the grant sequences.
    fn pointer(&self) -> usize {
        self.next
    }
}

#[test]
fn reference_arbiter_is_round_robin_fair() {
    let mut a = RrArbiter::new(3);
    let all = [true, true, true];
    let grants: Vec<usize> = (0..6).map(|_| a.grant(&all).unwrap()).collect();
    assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
}

#[test]
fn reference_arbiter_skips_idle_requesters() {
    let mut a = RrArbiter::new(4);
    assert_eq!(a.grant(&[false, false, true, false]), Some(2));
    // Priority rotates past the winner.
    assert_eq!(a.grant(&[true, false, true, false]), Some(0));
    assert_eq!(a.grant(&[false, false, false, false]), None);
}

fn flit(tag: u16) -> Flit {
    Flit {
        seq: tag,
        ..noc_base::arena::placeholder_flit()
    }
}

proptest! {
    /// Every [`FifoBank`] slot behaves exactly like an independent bounded
    /// VecDeque: push acceptance (full or not), pop order, head identity,
    /// readiness timing, length and emptiness all agree op-for-op while
    /// random interleavings drive each ring cursor around its range many
    /// times (the 1..4 depths against up to 200 ops guarantee wraparound),
    /// and each slot's tag survives all of it.
    #[test]
    fn fifo_bank_matches_reference_model(
        slots in 1usize..4,
        depth in 1usize..4,
        ops in prop::collection::vec(
            (0usize..4, prop_oneof![
                (0u16..1000, 0u64..50).prop_map(Some), // push (tag, ready_at)
                Just(None),                            // pop
            ]),
            1..200,
        ),
    ) {
        // Refs to pass through the bank; the pool is sized so pushes never
        // run out of distinct tags to mint.
        let pool = FlitPool::new(ops.len() + 1, 1);
        let mut bank = FifoBank::new(slots, depth);
        let mut reference: Vec<VecDeque<(FlitRef, u64)>> = vec![VecDeque::new(); slots];
        // Each slot's tag word shares its run with the ring; neither may
        // write over the other.
        for s in 0..slots {
            prop_assert_eq!(bank.tag(s), 0, "a fresh tag is zero");
            bank.set_tag(s, !(s as u64));
        }
        for (i, (raw_slot, op)) in ops.into_iter().enumerate() {
            let slot = raw_slot % slots;
            match op {
                Some((tag, ready_at)) => {
                    let r = pool.alloc_serial(flit(tag));
                    let ok = bank.push(slot, r, ready_at).is_ok();
                    let model_ok = reference[slot].len() < depth;
                    prop_assert_eq!(ok, model_ok, "push acceptance diverged");
                    if model_ok {
                        reference[slot].push_back((r, ready_at));
                    } else {
                        pool.free(r); // rejected pushes return the slot
                    }
                }
                None => {
                    let popped = bank.pop(slot);
                    prop_assert_eq!(popped, reference[slot].pop_front());
                    if let Some((r, _)) = popped {
                        pool.free(r);
                    }
                }
            }
            // Every slot (touched or not this op) must agree with its model.
            let cycle = i as u64 % 50;
            for (s, model) in reference.iter().enumerate() {
                prop_assert_eq!(bank.tag(s), !(s as u64));
                prop_assert_eq!(bank.len(s), model.len());
                prop_assert_eq!(bank.is_empty(s), model.is_empty());
                prop_assert_eq!(bank.head_ref(s), model.front().map(|&(r, _)| r));
                prop_assert_eq!(
                    bank.head_ready(s, cycle),
                    model
                        .front()
                        .filter(|&&(_, ready)| ready <= cycle)
                        .map(|&(r, _)| r)
                );
            }
        }
    }

    /// The ring keeps every ready cycle exactly, wherever the clock is and
    /// however deep the ring: fast-forwarding jumps the cycle counter
    /// arbitrarily far, so a flit pushed at `c` (ready at `c + 1`) must not
    /// be ready at `c`, must be at `c + 1`, and must pop with the `ready_at`
    /// it was pushed with — around 2³², 2⁴⁰ and the top of the range, where
    /// a ready cycle stored truncated or relative to anything would alias.
    /// Depth 1 wraps the cursor on every operation and depth 300 takes it
    /// past what a byte holds; both run against the same `VecDeque` model.
    #[test]
    fn fifo_bank_keeps_ready_cycles_exactly_at_any_depth(
        base in prop_oneof![
            Just(1u64 << 32),
            Just(1u64 << 40),
            Just(u64::MAX - 1),
            any::<u64>(),
        ],
        back in 0u64..600,
        depth in prop_oneof![Just(1usize), Just(300usize), 1usize..9],
        ops in prop::collection::vec(any::<bool>(), 1..700),
    ) {
        let pool = FlitPool::new(ops.len() + 1, 1);
        let mut bank = FifoBank::new(2, depth);
        let mut model: VecDeque<(FlitRef, u64)> = VecDeque::new();
        // The clock starts a little before `base` and ticks once per
        // operation, crossing it (saturating at the top of the range).
        let mut cycle = base.saturating_sub(back);
        for (i, push) in ops.into_iter().enumerate() {
            if push && model.len() < depth {
                let r = pool.alloc_serial(flit(i as u16));
                let ready_at = cycle.saturating_add(1);
                prop_assert!(bank.push(1, r, ready_at).is_ok());
                model.push_back((r, ready_at));
                if model.len() == 1 && ready_at > cycle {
                    prop_assert_eq!(bank.head_ready(1, cycle), None, "ready the cycle it was written");
                    prop_assert_eq!(bank.head_ready(1, ready_at), Some(r));
                }
            } else if push {
                let r = pool.alloc_serial(flit(i as u16));
                prop_assert!(bank.push(1, r, cycle).is_err(), "push into a full ring");
                pool.free(r);
            } else {
                let popped = bank.pop(1);
                prop_assert_eq!(popped, model.pop_front(), "pop diverged at cycle {}", cycle);
                if let Some((r, _)) = popped {
                    pool.free(r);
                }
            }
            prop_assert_eq!(bank.len(1), model.len());
            prop_assert_eq!(
                bank.head_ready(1, cycle),
                model.front().filter(|&&(_, ready)| ready <= cycle).map(|&(r, _)| r)
            );
            prop_assert!(bank.is_empty(0), "the neighbouring slot was written");
            prop_assert_eq!(bank.tag(1), 0, "the ring wrote over the slot's tag");
            cycle = cycle.saturating_add(1);
        }
    }

    /// The [`FlitPool`] under arbitrary alloc/free interleavings: live refs
    /// read back exactly the flit written (stable across every other
    /// operation), allocation hands out distinct slots, a full pool counts
    /// no free slot, and frees make capacity reusable.
    #[test]
    fn pool_survives_alloc_free_interleavings(
        capacity in 1usize..12,
        ops in prop::collection::vec(prop_oneof![
            Just(true),  // alloc
            Just(false), // free the oldest live ref
        ], 1..200),
    ) {
        let pool = FlitPool::new(capacity, 1);
        // Live refs in allocation order, with the tag each slot must hold.
        let mut live: VecDeque<(FlitRef, u16)> = VecDeque::new();
        let mut next_tag = 0u16;
        for alloc in ops {
            if alloc {
                if live.len() == capacity {
                    prop_assert_eq!(pool.total_free(), 0, "a full pool has a free slot");
                } else {
                    let r = pool.alloc_serial(flit(next_tag));
                    prop_assert!(
                        live.iter().all(|&(l, _)| l.index() != r.index()),
                        "allocated a slot that is still live"
                    );
                    live.push_back((r, next_tag));
                    next_tag = next_tag.wrapping_add(1);
                }
            } else if let Some((r, _)) = live.pop_front() {
                pool.free(r);
            }
            // Every live ref still reads back its own flit, untouched by
            // the surrounding churn.
            for &(r, tag) in &live {
                prop_assert_eq!(pool.get(r).seq, tag, "live flit body corrupted");
            }
        }
        prop_assert_eq!(pool.total_free() + live.len(), capacity);
    }

    /// The round-robin arbiter is work-conserving and starvation-free: under
    /// continuous full load every requester is granted within n rounds.
    #[test]
    fn arbiter_is_work_conserving_and_fair(
        n in 1usize..12,
        rounds in 1usize..40,
    ) {
        let mut arb = RrArbiter::new(n);
        let all = vec![true; n];
        let mut last_grant = vec![None::<usize>; n];
        for round in 0..rounds {
            let g = arb.grant(&all).expect("work conserving under load");
            prop_assert!(g < n);
            if let Some(prev) = last_grant[g] {
                prop_assert!(round - prev <= n, "requester {g} starved");
            }
            last_grant[g] = Some(round);
        }
        // No requests -> no grant.
        prop_assert_eq!(arb.grant(&vec![false; n]), None);
    }

    /// The word-packed `BitArbiter` is grant-for-grant identical to the
    /// scalar `RrArbiter` (the retained reference implementation), including
    /// the rotating-priority pointer, over arbitrary request-mask sequences —
    /// sparse, dense, empty, and spanning multiple 64-bit words.
    #[test]
    fn bit_arbiter_matches_scalar_reference(
        n in 1usize..150,
        masks in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 0..150),
            1..60,
        ),
    ) {
        let mut scalar = RrArbiter::new(n);
        let mut bit = noc_base::BitArbiter::new(n);
        for raw in &masks {
            // Resize the raw mask to the arbiter width, then mirror it into
            // both representations.
            let requests: Vec<bool> = (0..n).map(|i| raw.get(i).copied().unwrap_or(false)).collect();
            let mut word_mask = noc_base::WordMask::new(n);
            for (i, &r) in requests.iter().enumerate() {
                if r {
                    word_mask.set(i);
                }
            }
            prop_assert_eq!(
                scalar.grant(&requests),
                bit.grant(&word_mask),
                "grant diverged from the scalar reference"
            );
            prop_assert_eq!(
                scalar.pointer(),
                bit.pointer(),
                "RR pointer state diverged from the scalar reference"
            );
        }

        // The same sequences through every one-word width: the scalar
        // reference, `BitArbiter` over a `WordMask` and `BitArbiter` over a
        // `Mask64` (the kernel's per-port and per-VC request sets) agree on
        // every grant and pointer. Each width first parks the pointer on its
        // top requester and grants it, so the wrap is taken from the last
        // bit — at n = 64 from pointer 63, where a `1 << 64` anywhere in the
        // one-word path would overflow.
        for n in 1..=noc_base::Mask64::WIDTH {
            let top = |i: usize| i + 1 == n;
            let wrap = [
                (0..n).map(|i| i + 2 == n).collect::<Vec<bool>>(),
                (0..n).map(|i| top(i) || i == 0).collect(),
                (0..n).map(|i| top(i) || i == 0).collect(),
            ];
            let random = masks
                .iter()
                .map(|raw| (0..n).map(|i| raw.get(i).copied().unwrap_or(false)).collect());
            let mut scalar = RrArbiter::new(n);
            let mut wide = noc_base::BitArbiter::new(n);
            let mut word = noc_base::BitArbiter::new(n);
            for requests in wrap.into_iter().chain(random) {
                let mut word_mask = noc_base::WordMask::new(n);
                let mut mask64 = noc_base::Mask64::EMPTY;
                for (i, &r) in requests.iter().enumerate() {
                    word_mask.assign(i, r);
                    mask64.assign(i, r);
                }
                let expected = scalar.grant(&requests);
                prop_assert_eq!(expected, wide.grant(&word_mask), "WordMask grant, n = {}", n);
                prop_assert_eq!(expected, word.grant(&mask64), "Mask64 grant, n = {}", n);
                prop_assert_eq!(scalar.pointer(), wide.pointer(), "WordMask pointer, n = {}", n);
                prop_assert_eq!(scalar.pointer(), word.pointer(), "Mask64 pointer, n = {}", n);
            }
        }
    }
}
