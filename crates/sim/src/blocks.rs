//! The router's flit buffers: a bank of bounded ring-buffer FIFOs with
//! pipeline-stage readiness ([`FifoBank`]), one run of words per input VC.
//! Every router scheme buffers through it (it is the pipeline kernel's
//! input-VC state), and it is the one ring implementation in the workspace.

use noc_base::FlitRef;
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

/// One cache line of backing store: the bank's runs are carved out of an
/// array of these, so the store starts on a line boundary and a run that
/// fills a line (the paper's depth of 4) never straddles two.
#[derive(Copy, Clone, Debug)]
#[repr(C, align(64))]
struct Line([u64; 8]);

/// Words of a run before its ready cycles: the cursor and the tag.
const RUN_HEADER: usize = 2;

/// Every input-VC buffer of one router: one contiguous **run** of `u64` words
/// per slot, all in one allocation. Slot `s` (the kernel's `slot = in_port *
/// vcs + vc` scheme) owns words `[s * stride, (s + 1) * stride)`:
///
/// | words | content |
/// |---|---|
/// | 0 | ring cursor: `head` in the low half, `len` in the high half |
/// | 1 | the slot's *tag*, a word its owner keeps beside the ring ([`tag`](Self::tag)) |
/// | 2 .. 2 + depth | the first cycle each buffered flit may leave (the cycle after its buffer-write stage) — a full `u64` each, fast-forwarding jumps the clock arbitrarily far |
/// | 2 + depth .. | the buffered [`FlitRef`]s, two to a word |
///
/// So a push, a pop or a readiness test on a VC, and its owner's read of
/// what it knows about that VC, touch one cache line (64 bytes at depth 4)
/// where an array per field touched one line per field. No per-VC
/// `VecDeque`, no pointer chasing, no per-flit allocation.
///
/// # The unchecked ring access
///
/// Every accessor takes its run from [`run`](Self::run), whose one *checked*
/// comparison `slot < slots`, with the store's construction-time size
/// (`slots * stride` words, never resized), puts all `stride` words of the
/// run in bounds. Inside the run a position is `head + offset` wrapped once,
/// with `head < depth` a ring invariant (`new` zeroes it, `pop` wraps it) and
/// `offset <= len <= depth`, so every ready word and ref addressed lies in
/// the run; debug builds assert both. The store is zeroed at construction,
/// and a ref is read only below `len`, after `push` wrote it.
#[derive(Clone, Debug)]
pub struct FifoBank {
    store: Box<[Line]>,
    slots: usize,
    depth: usize,
    /// Words per run.
    stride: usize,
}

impl FifoBank {
    /// Creates `slots` ring buffers of `depth` flits each, all tags zero.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or does not fit the 32-bit cursor.
    pub fn new(slots: usize, depth: usize) -> Self {
        assert!(depth > 0, "buffer depth must be nonzero");
        assert!(
            u32::try_from(depth).is_ok(),
            "buffer depth {depth} too deep"
        );
        let stride = RUN_HEADER + depth + depth.div_ceil(2);
        let words = slots.checked_mul(stride).expect("bank size overflows");
        Self {
            store: vec![Line([0; 8]); words.div_ceil(8)].into(),
            slots,
            depth,
            stride,
        }
    }

    /// Word offset of `slot`'s run in the store: the one checked comparison
    /// every accessor starts with (its failure out of line, so the check is
    /// a compare and a never-taken branch).
    #[inline]
    fn offset(&self, slot: usize) -> usize {
        #[cold]
        #[inline(never)]
        fn out_of_range(slot: usize, slots: usize) -> ! {
            panic!("slot {slot} out of range ({slots} slots)")
        }
        if slot >= self.slots {
            out_of_range(slot, self.slots);
        }
        slot * self.stride
    }

    /// The first word of `slot`'s run.
    #[inline]
    fn run(&self, slot: usize) -> *const u64 {
        // SAFETY: the store holds at least `slots * stride` words (`new`)
        // and `offset` checked `slot < slots`, so the whole run is inside
        // the allocation.
        unsafe { self.store.as_ptr().cast::<u64>().add(self.offset(slot)) }
    }

    /// [`run`](Self::run), for writing.
    #[inline]
    fn run_mut(&mut self, slot: usize) -> *mut u64 {
        let offset = self.offset(slot);
        // SAFETY: as in `run`.
        unsafe { self.store.as_mut_ptr().cast::<u64>().add(offset) }
    }

    /// `(head, len)` of the run at `run`.
    #[inline]
    fn cursor(&self, run: *const u64) -> (usize, usize) {
        // SAFETY: word 0 of a run that `run`/`run_mut` returned.
        let word = unsafe { *run };
        let (head, len) = (word as u32 as usize, (word >> 32) as usize);
        debug_assert!(head < self.depth && len <= self.depth);
        (head, len)
    }

    /// Ring position `head + offset`, wrapped. `offset <= depth`, so the wrap
    /// is one conditional subtract, not a division — this sits on the
    /// per-flit hot path.
    #[inline]
    fn wrap(&self, head: usize, offset: usize) -> usize {
        debug_assert!(head < self.depth && offset <= self.depth);
        let o = head + offset;
        if o >= self.depth {
            o - self.depth
        } else {
            o
        }
    }

    /// Reads the `(ref, ready_at)` at ring position `o` of the run at `run`.
    ///
    /// # Safety
    ///
    /// `run` came from [`run`](Self::run) or [`run_mut`](Self::run_mut), `o <
    /// depth`, and `push` has written the entry.
    #[inline]
    unsafe fn entry(&self, run: *const u64, o: usize) -> (FlitRef, u64) {
        debug_assert!(o < self.depth);
        // SAFETY: the ready cycles are words `2..2 + depth` of the run and
        // the refs fill the `ceil(depth / 2)` words after them, so both
        // reads stay inside the run for `o < depth`; a `FlitRef` is a
        // transparent `u32`, aligned wherever a half-word is.
        unsafe {
            let refs = run.add(RUN_HEADER + self.depth).cast::<FlitRef>();
            (*refs.add(o), *run.add(RUN_HEADER + o))
        }
    }

    /// Appends a flit ref to `slot`, becoming ready at `ready_at`.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when the ring is full.
    #[inline]
    pub fn push(&mut self, slot: usize, r: FlitRef, ready_at: u64) -> Result<(), FifoFullError> {
        let run = self.run_mut(slot);
        let (head, len) = self.cursor(run);
        if len >= self.depth {
            return Err(FifoFullError);
        }
        let o = self.wrap(head, len);
        // SAFETY: `o < depth` (`wrap`), so both stores land where `entry`
        // reads them, inside the run; word 0 is the cursor, whose high half
        // is `len`.
        unsafe {
            *run.add(RUN_HEADER + o) = ready_at;
            *run.add(RUN_HEADER + self.depth).cast::<FlitRef>().add(o) = r;
            *run += 1 << 32;
        }
        Ok(())
    }

    /// The head `(ref, ready_at)` of `slot`, if any.
    #[inline]
    fn head(&self, slot: usize) -> Option<(FlitRef, u64)> {
        let run = self.run(slot);
        let (head, len) = self.cursor(run);
        // SAFETY: `head < depth` is the ring invariant, and the head entry
        // is below `len`.
        (len > 0).then(|| unsafe { self.entry(run, head) })
    }

    /// The head flit ref of `slot`, if any (ready or not).
    #[inline]
    pub fn head_ref(&self, slot: usize) -> Option<FlitRef> {
        self.head(slot).map(|(r, _)| r)
    }

    /// The head flit ref of `slot` if it is ready at `cycle`.
    #[inline]
    pub fn head_ready(&self, slot: usize, cycle: u64) -> Option<FlitRef> {
        self.head(slot)
            .filter(|&(_, ready_at)| ready_at <= cycle)
            .map(|(r, _)| r)
    }

    /// Removes and returns the head `(ref, ready_at)` of `slot`.
    #[inline]
    pub fn pop(&mut self, slot: usize) -> Option<(FlitRef, u64)> {
        let run = self.run_mut(slot);
        let (head, len) = self.cursor(run);
        if len == 0 {
            return None;
        }
        // SAFETY: `head < depth` is the ring invariant and the head entry is
        // below `len`; word 0 is the cursor, rewritten with the head
        // advanced (wrapped) and `len - 1`.
        unsafe {
            let out = self.entry(run, head);
            *run = self.wrap(head, 1) as u64 | ((len - 1) as u64) << 32;
            Some(out)
        }
    }

    /// Number of flits buffered in `slot`.
    #[inline]
    pub fn len(&self, slot: usize) -> usize {
        self.cursor(self.run(slot)).1
    }

    /// Whether `slot` is empty.
    #[inline]
    pub fn is_empty(&self, slot: usize) -> bool {
        self.len(slot) == 0
    }

    /// The word `slot`'s owner keeps beside its ring, zero until set. The
    /// bank never interprets it: it is there so per-VC state read together
    /// with the ring (the pipeline kernel's packet claim) shares its line.
    #[inline]
    pub fn tag(&self, slot: usize) -> u64 {
        // SAFETY: word 1 of the run.
        unsafe { *self.run(slot).add(1) }
    }

    /// Sets `slot`'s [`tag`](Self::tag).
    #[inline]
    pub fn set_tag(&mut self, slot: usize, tag: u64) {
        // SAFETY: word 1 of the run.
        unsafe { *self.run_mut(slot).add(1) = tag };
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
        assert_eq!(f.len(1), 2);
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
}
