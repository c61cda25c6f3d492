//! Reusable router microarchitecture building blocks.
//!
//! The pseudo-circuit router (`pseudo-circuit` crate) and the EVC comparison
//! router (`noc-evc` crate) are assembled from the same primitives: a bank of
//! bounded ring-buffer FIFOs with pipeline-stage readiness ([`FifoBank`]),
//! round-robin arbiters, and per-channel credit books.

use noc_base::{FlitRef, VcIndex};
use std::error::Error;
use std::fmt;

/// Error returned when pushing into a full [`FifoBank`] slot — doing so
/// indicates a credit-accounting bug, so callers generally `expect` it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FifoFullError;

impl fmt::Display for FifoFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flit buffer overflow (credit accounting violated)")
    }
}

impl Error for FifoFullError {}

/// Every input-VC buffer of one router, as fixed-stride ring buffers over two
/// contiguous backing arrays.
///
/// Slot `s` (the kernel's `slot = in_port * vcs + vc` scheme) owns the range
/// `[s * depth, (s + 1) * depth)` of the parallel `refs` / `ready` arrays:
/// the buffered [`FlitRef`] and the first cycle it may leave (the cycle after
/// its buffer-write stage). Per-slot `head` / `len` cursors make each range a
/// ring buffer, so a push or pop is two or three array writes into memory
/// shared with every other buffer of the router — no per-VC `VecDeque`, no
/// pointer chasing, no per-flit allocation.
#[derive(Clone, Debug)]
pub struct FifoBank {
    refs: Vec<FlitRef>,
    ready: Vec<u64>,
    head: Vec<u32>,
    len: Vec<u32>,
    depth: usize,
}

impl FifoBank {
    /// Creates `slots` ring buffers of `depth` flits each.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(slots: usize, depth: usize) -> Self {
        assert!(depth > 0, "buffer depth must be nonzero");
        Self {
            refs: vec![FlitRef::INVALID; slots * depth],
            ready: vec![0; slots * depth],
            head: vec![0; slots],
            len: vec![0; slots],
            depth,
        }
    }

    /// Position of the `offset`-th occupied entry of `slot` in the backing
    /// arrays. `offset` is always < `depth` (it indexes an occupied entry),
    /// so the ring wrap is one conditional subtract, not a division — this
    /// sits on the per-flit hot path.
    ///
    /// SAFETY contract (callers are in this impl only): `slot` has already
    /// been bounds-checked against `len`/`head` (all four vectors are sized
    /// together at construction and never resized), and the returned
    /// position is `< refs.len()`: `head[slot] < depth` is a ring invariant
    /// (`new` zeroes it, `pop` wraps it), so `o < depth` and
    /// `slot * depth + o < (slot + 1) * depth <= refs.len()`.
    #[inline]
    fn pos(&self, slot: usize, offset: usize) -> usize {
        // SAFETY: see above — every public caller indexes `self.len[slot]`
        // first, whose panic proves `slot` in range here.
        let h = unsafe { *self.head.get_unchecked(slot) } as usize;
        debug_assert!(h < self.depth && offset < self.depth);
        let mut o = h + offset;
        if o >= self.depth {
            o -= self.depth;
        }
        slot * self.depth + o
    }

    /// Reads `(refs[pos], ready[pos])` without re-checking bounds.
    #[inline]
    fn entry(&self, pos: usize) -> (FlitRef, u64) {
        debug_assert!(pos < self.refs.len());
        // SAFETY: `pos` came from `pos()`, which proves the range above.
        unsafe {
            (
                *self.refs.get_unchecked(pos),
                *self.ready.get_unchecked(pos),
            )
        }
    }

    /// Appends a flit ref to `slot`, becoming ready at `ready_at`.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when the ring is full.
    #[inline]
    pub fn push(&mut self, slot: usize, r: FlitRef, ready_at: u64) -> Result<(), FifoFullError> {
        let len = self.len[slot] as usize;
        if len >= self.depth {
            return Err(FifoFullError);
        }
        let pos = self.pos(slot, len);
        debug_assert!(pos < self.refs.len());
        // SAFETY: `pos()` proves the range (see its contract); `slot` was
        // bounds-checked by the `self.len[slot]` read above.
        unsafe {
            *self.refs.get_unchecked_mut(pos) = r;
            *self.ready.get_unchecked_mut(pos) = ready_at;
            *self.len.get_unchecked_mut(slot) += 1;
        }
        Ok(())
    }

    /// The head flit ref of `slot`, if any (ready or not).
    #[inline]
    pub fn head_ref(&self, slot: usize) -> Option<FlitRef> {
        (self.len[slot] > 0).then(|| self.entry(self.pos(slot, 0)).0)
    }

    /// The head flit ref of `slot` if it is ready at `cycle`.
    #[inline]
    pub fn head_ready(&self, slot: usize, cycle: u64) -> Option<FlitRef> {
        if self.len[slot] == 0 {
            return None;
        }
        let (r, ready_at) = self.entry(self.pos(slot, 0));
        (ready_at <= cycle).then_some(r)
    }

    /// Removes and returns the head `(ref, ready_at)` of `slot`.
    #[inline]
    pub fn pop(&mut self, slot: usize) -> Option<(FlitRef, u64)> {
        if self.len[slot] == 0 {
            return None;
        }
        let pos = self.pos(slot, 0);
        let out = self.entry(pos);
        let next = self.head[slot] as usize + 1;
        // SAFETY: `pos()` proves `pos < refs.len()`; `slot` was
        // bounds-checked by the `self.len[slot]` read above.
        unsafe {
            *self.refs.get_unchecked_mut(pos) = FlitRef::INVALID;
            *self.head.get_unchecked_mut(slot) = if next >= self.depth { 0 } else { next } as u32;
            *self.len.get_unchecked_mut(slot) -= 1;
        }
        Some(out)
    }

    /// Number of flits buffered in `slot`.
    #[inline]
    pub fn len(&self, slot: usize) -> usize {
        self.len[slot] as usize
    }

    /// Whether `slot` is empty.
    #[inline]
    pub fn is_empty(&self, slot: usize) -> bool {
        self.len[slot] == 0
    }

    /// Whether `slot` is full.
    #[inline]
    pub fn is_full(&self, slot: usize) -> bool {
        self.len[slot] as usize >= self.depth
    }

    /// Per-slot capacity in flits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of ring buffers in the bank.
    pub fn slots(&self) -> usize {
        self.head.len()
    }
}

/// A work-conserving round-robin arbiter over `n` requesters.
#[derive(Clone, Debug)]
pub struct RrArbiter {
    next: usize,
    n: usize,
}

impl RrArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        Self { next: 0, n }
    }

    /// Grants one of the requesting indices (where `requests[i]` is true),
    /// rotating priority so the winner moves to lowest priority.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != n`.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
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

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; arbiters are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rotating-priority pointer. `RrArbiter` is the behavioural
    /// reference for [`noc_base::BitArbiter`]; the equivalence property
    /// tests compare this state, not just the grant sequences.
    pub fn pointer(&self) -> usize {
        self.next
    }
}

/// Per-output-channel credit counters: one counter per (drop position, VC).
///
/// `sub` indexes the drop position of a multidrop channel (always 0 for
/// point-to-point links).
#[derive(Clone, Debug)]
pub struct CreditBook {
    credits: Vec<u32>,
    subs: usize,
    vcs: usize,
    capacity: u32,
}

impl CreditBook {
    /// Creates a credit book for `subs` drop positions × `vcs` VCs, each
    /// starting with `capacity` credits (the downstream buffer depth).
    ///
    /// `subs == 0` creates an unconnected book (all queries return 0).
    pub fn new(subs: usize, vcs: usize, capacity: u32) -> Self {
        Self {
            credits: vec![capacity; subs * vcs],
            subs,
            vcs,
            capacity,
        }
    }

    #[inline]
    fn slot(&self, sub: usize, vc: VcIndex) -> usize {
        debug_assert!(sub < self.subs, "sub {sub} out of range");
        debug_assert!(vc.index() < self.vcs, "vc {vc} out of range");
        sub * self.vcs + vc.index()
    }

    /// Credits available for (`sub`, `vc`); 0 for unconnected books.
    pub fn available(&self, sub: usize, vc: VcIndex) -> u32 {
        if self.subs == 0 {
            return 0;
        }
        self.credits[self.slot(sub, vc)]
    }

    /// Consumes one credit.
    ///
    /// # Panics
    ///
    /// Panics if no credit is available — that is a flow-control bug.
    pub fn consume(&mut self, sub: usize, vc: VcIndex) {
        let slot = self.slot(sub, vc);
        assert!(self.credits[slot] > 0, "credit underflow at sub {sub} {vc}");
        self.credits[slot] -= 1;
    }

    /// Returns one credit.
    ///
    /// # Panics
    ///
    /// Panics if the counter would exceed the configured capacity.
    pub fn refill(&mut self, sub: usize, vc: VcIndex) {
        let capacity = self.capacity;
        let slot = self.slot(sub, vc);
        assert!(
            self.credits[slot] < capacity,
            "credit overflow at sub {sub} {vc}"
        );
        self.credits[slot] += 1;
    }

    /// Total credits across every (sub, vc) pair.
    pub fn total_available(&self) -> u32 {
        self.credits.iter().sum()
    }

    /// Credits summed across VCs at one drop position.
    pub fn available_at_sub(&self, sub: usize) -> u32 {
        if self.subs == 0 {
            return 0;
        }
        (0..self.vcs)
            .map(|v| self.credits[sub * self.vcs + v])
            .sum()
    }

    /// Number of drop positions.
    pub fn subs(&self) -> usize {
        self.subs
    }

    /// Per-(sub, VC) capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_base::{Flit, FlitPool};

    /// A pool of distinguishable refs for exercising the bank.
    fn refs(n: usize) -> (FlitPool, Vec<FlitRef>) {
        let pool = FlitPool::new(n, 1);
        let rs = (0..n)
            .map(|i| {
                pool.alloc_serial(Flit {
                    seq: i as u16,
                    ..noc_base::arena::placeholder_flit()
                })
            })
            .collect();
        (pool, rs)
    }

    #[test]
    fn bank_slot_respects_capacity_and_order() {
        let (_pool, r) = refs(3);
        let mut f = FifoBank::new(2, 2);
        f.push(1, r[0], 1).unwrap();
        f.push(1, r[1], 2).unwrap();
        assert!(f.is_full(1));
        assert!(f.is_empty(0), "slots are independent");
        assert_eq!(f.push(1, r[2], 3), Err(FifoFullError));
        assert_eq!(f.pop(1).unwrap().0, r[0]);
        assert_eq!(f.pop(1).unwrap().0, r[1]);
        assert!(f.is_empty(1));
        assert_eq!(f.pop(1), None);
    }

    #[test]
    fn bank_head_ready_respects_pipeline_timing() {
        let (_pool, r) = refs(1);
        let mut f = FifoBank::new(1, 4);
        f.push(0, r[0], 5).unwrap();
        assert!(f.head_ready(0, 4).is_none(), "not ready before cycle 5");
        assert_eq!(f.head_ready(0, 5), Some(r[0]));
        assert_eq!(f.head_ref(0), Some(r[0]));
    }

    #[test]
    fn bank_ring_wraps_around() {
        let (_pool, r) = refs(8);
        let mut f = FifoBank::new(2, 3);
        // Drive the head cursor all the way around the ring.
        for chunk in r.chunks(2) {
            for &x in chunk {
                f.push(0, x, 0).unwrap();
            }
            for &x in chunk {
                assert_eq!(f.pop(0).unwrap().0, x);
            }
        }
        assert!(f.is_empty(0));
    }

    #[test]
    fn arbiter_is_round_robin_fair() {
        let mut a = RrArbiter::new(3);
        let all = [true, true, true];
        let grants: Vec<usize> = (0..6).map(|_| a.grant(&all).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn arbiter_skips_idle_requesters() {
        let mut a = RrArbiter::new(4);
        assert_eq!(a.grant(&[false, false, true, false]), Some(2));
        // Priority rotates past the winner.
        assert_eq!(a.grant(&[true, false, true, false]), Some(0));
        assert_eq!(a.grant(&[false, false, false, false]), None);
    }

    #[test]
    fn credit_book_consume_refill_roundtrip() {
        let mut b = CreditBook::new(2, 4, 4);
        assert_eq!(b.available(1, VcIndex::new(3)), 4);
        b.consume(1, VcIndex::new(3));
        assert_eq!(b.available(1, VcIndex::new(3)), 3);
        b.refill(1, VcIndex::new(3));
        assert_eq!(b.available(1, VcIndex::new(3)), 4);
        assert_eq!(b.total_available(), 2 * 4 * 4);
        assert_eq!(b.available_at_sub(0), 16);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn credit_underflow_is_a_bug() {
        let mut b = CreditBook::new(1, 1, 1);
        b.consume(0, VcIndex::new(0));
        b.consume(0, VcIndex::new(0));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn credit_overflow_is_a_bug() {
        let mut b = CreditBook::new(1, 1, 1);
        b.refill(0, VcIndex::new(0));
    }

    #[test]
    fn unconnected_credit_book_reports_zero() {
        let b = CreditBook::new(0, 4, 4);
        assert_eq!(b.available(0, VcIndex::new(0)), 0);
        assert_eq!(b.total_available(), 0);
        assert_eq!(b.available_at_sub(0), 0);
    }
}
