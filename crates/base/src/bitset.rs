//! Word-packed bitsets and the bit-parallel round-robin arbiter.
//!
//! The pipeline kernel's hot path (`noc_sim::pipeline`) keeps every set over
//! one router's ports or VCs in a one-word [`Mask64`] and the sets that span
//! `input ports × VCs` in a [`WordMask`], all maintained incrementally at
//! state transitions; its arbiters are [`BitArbiter`]s whose grant is a
//! masked `trailing_zeros` scan over either kind of [`RequestSet`] instead
//! of a per-element `&[bool]` walk. The scalar `RrArbiter` the routers used
//! to run on is kept as the behavioural reference in
//! `crates/sim/tests/prop_blocks.rs`: `BitArbiter::grant` is provably (and
//! property-tested to be) grant-for-grant identical to it, including the
//! rotating-priority pointer state.

/// Bits per storage word.
const WORD_BITS: usize = u64::BITS as usize;

/// A fixed-size bitset packed into `u64` words.
///
/// A mask over at most 64 positions keeps its one word in the struct and
/// owns no heap memory (the pipeline kernel's `in_ports × vcs` sets: 20 bits
/// on a mesh router, where a heap word was an allocation and a cache line
/// apiece); wider masks allocate their words once at construction. Every
/// other operation is allocation-free, so masks embedded in router state
/// preserve the engine's zero-allocation steady state
/// (`tests/zero_alloc.rs`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WordMask {
    /// The only word of a mask over at most [`WORD_BITS`] positions; zero
    /// and unused otherwise.
    inline: u64,
    /// Every word of a wider mask; empty (no allocation) otherwise.
    heap: Box<[u64]>,
    bits: usize,
}

impl WordMask {
    /// Creates an all-clear mask over `bits` bit positions.
    pub fn new(bits: usize) -> Self {
        let heap = if bits > WORD_BITS {
            vec![0; bits.div_ceil(WORD_BITS)].into()
        } else {
            Box::default()
        };
        Self {
            inline: 0,
            heap,
            bits,
        }
    }

    /// The storage words, wherever they live.
    #[inline]
    fn words(&self) -> &[u64] {
        if self.heap.is_empty() {
            std::slice::from_ref(&self.inline)
        } else {
            &self.heap
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        if self.heap.is_empty() {
            std::slice::from_mut(&mut self.inline)
        } else {
            &mut self.heap
        }
    }

    /// Number of bit positions.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the mask has zero bit positions (not whether it is all-clear;
    /// see [`WordMask::any`]).
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    #[inline]
    fn check(&self, bit: usize) {
        debug_assert!(bit < self.bits, "bit {bit} out of range {}", self.bits);
    }

    /// Sets bit `bit`.
    #[inline]
    pub fn set(&mut self, bit: usize) {
        self.check(bit);
        self.words_mut()[bit / WORD_BITS] |= 1u64 << (bit % WORD_BITS);
    }

    /// Clears bit `bit`.
    #[inline]
    pub fn clear(&mut self, bit: usize) {
        self.check(bit);
        self.words_mut()[bit / WORD_BITS] &= !(1u64 << (bit % WORD_BITS));
    }

    /// Sets or clears bit `bit`.
    #[inline]
    pub fn assign(&mut self, bit: usize, value: bool) {
        self.check(bit);
        let word = &mut self.words_mut()[bit / WORD_BITS];
        let mask = 1u64 << (bit % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Whether bit `bit` is set.
    #[inline]
    pub fn get(&self, bit: usize) -> bool {
        self.check(bit);
        self.words()[bit / WORD_BITS] & (1u64 << (bit % WORD_BITS)) != 0
    }

    /// Clears every bit.
    #[inline]
    pub fn clear_all(&mut self) {
        self.words_mut().fill(0);
    }

    /// Whether any bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn popcount(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Index of the lowest set bit at or above `start`, if any.
    #[inline]
    pub fn first_set_from(&self, start: usize) -> Option<usize> {
        if start >= self.bits {
            return None;
        }
        let words = self.words();
        let mut wi = start / WORD_BITS;
        // Mask off the bits below `start` in its own word.
        let mut word = words[wi] & (!0u64 << (start % WORD_BITS));
        loop {
            if word != 0 {
                return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
            }
            wi += 1;
            if wi >= words.len() {
                return None;
            }
            word = words[wi];
        }
    }

    /// Visits the set bits in ascending order and clears each one `keep`
    /// answers `false` for — a worklist scan: bit `i` stays set while item
    /// `i` still has work. `keep` sees each bit that was set on entry once.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (wi, stored) in self.words_mut().iter_mut().enumerate() {
            let mut word = *stored;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1; // strip lowest set bit
                if !keep(wi * WORD_BITS + bit) {
                    *stored &= !(1u64 << bit);
                }
            }
        }
    }

    /// Iterates the set bits in ascending order.
    pub fn iter(&self) -> SetBits<'_> {
        let words = self.words();
        SetBits {
            words,
            word: words[0],
            word_index: 0,
        }
    }
}

impl<'a> IntoIterator for &'a WordMask {
    type Item = usize;
    type IntoIter = SetBits<'a>;

    fn into_iter(self) -> SetBits<'a> {
        self.iter()
    }
}

/// Ascending iterator over the set bits of a [`WordMask`].
#[derive(Clone, Debug)]
pub struct SetBits<'a> {
    words: &'a [u64],
    word: u64,
    word_index: usize,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word_index += 1;
            self.word = *self.words.get(self.word_index)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1; // strip lowest set bit
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// A set over at most [`Mask64::WIDTH`] positions in one machine word.
///
/// The pipeline kernel and the pseudo-circuit unit summarize per-port state
/// in these ("which input ports hold a flit", "which output ports are held
/// by a circuit"), so a per-cycle phase intersects two words and visits the
/// set bits instead of looping over every port. `Copy`, so a scan iterates a
/// snapshot while the owner's state is mutated; iteration is ascending, the
/// order of the `0..ports` loops it replaces.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Mask64(u64);

impl Mask64 {
    /// Positions a mask can hold; owners assert their port and VC counts
    /// against it at construction.
    pub const WIDTH: usize = WORD_BITS;

    /// The mask with no bit set.
    pub const EMPTY: Self = Self(0);

    /// Sets bit `bit`.
    #[inline]
    pub fn set(&mut self, bit: usize) {
        debug_assert!(bit < Self::WIDTH);
        self.0 |= 1 << bit;
    }

    /// Clears bit `bit`.
    #[inline]
    pub fn clear(&mut self, bit: usize) {
        debug_assert!(bit < Self::WIDTH);
        self.0 &= !(1 << bit);
    }

    /// Sets or clears bit `bit`.
    #[inline]
    pub fn assign(&mut self, bit: usize, value: bool) {
        debug_assert!(bit < Self::WIDTH);
        self.0 = (self.0 & !(1 << bit)) | (u64::from(value) << bit);
    }

    /// Whether bit `bit` is set.
    #[inline]
    pub fn get(self, bit: usize) -> bool {
        debug_assert!(bit < Self::WIDTH);
        self.0 & (1 << bit) != 0
    }

    /// Whether any bit is set.
    #[inline]
    pub fn any(self) -> bool {
        self.0 != 0
    }
}

impl std::ops::BitAnd for Mask64 {
    type Output = Self;

    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        Self(self.0 & rhs.0)
    }
}

impl std::ops::Not for Mask64 {
    type Output = Self;

    #[inline]
    fn not(self) -> Self {
        Self(!self.0)
    }
}

impl IntoIterator for Mask64 {
    type Item = usize;
    type IntoIter = Mask64Bits;

    fn into_iter(self) -> Mask64Bits {
        Mask64Bits(self.0)
    }
}

/// Ascending iterator over the set bits of a [`Mask64`] snapshot.
#[derive(Clone, Debug)]
pub struct Mask64Bits(u64);

impl Iterator for Mask64Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1; // strip lowest set bit
        Some(bit)
    }
}

/// A request vector a [`BitArbiter`] grants from: bit `i` set means
/// requester `i` is asking.
pub trait RequestSet {
    /// Whether this is a request vector over exactly `n` requesters. A
    /// [`WordMask`] carries its width; a [`Mask64`] does not, so it spans
    /// any `n` up to [`Mask64::WIDTH`] that leaves no bit at or above `n`
    /// set.
    fn spans(&self, n: usize) -> bool;

    /// Index of the lowest requester at or above `start`, if any.
    fn first_set_from(&self, start: usize) -> Option<usize>;
}

impl RequestSet for WordMask {
    #[inline]
    fn spans(&self, n: usize) -> bool {
        self.bits == n
    }

    #[inline]
    fn first_set_from(&self, start: usize) -> Option<usize> {
        WordMask::first_set_from(self, start)
    }
}

impl RequestSet for Mask64 {
    #[inline]
    fn spans(&self, n: usize) -> bool {
        n == Self::WIDTH || (n < Self::WIDTH && self.0 >> n == 0)
    }

    #[inline]
    fn first_set_from(&self, start: usize) -> Option<usize> {
        // A start of `WIDTH` (one past the top bit) finds nothing; shifting
        // by it would overflow.
        if start >= Self::WIDTH {
            return None;
        }
        let word = self.0 & (!0u64 << start);
        (word != 0).then(|| word.trailing_zeros() as usize)
    }
}

/// A work-conserving round-robin arbiter over a [`RequestSet`].
///
/// Semantics are identical to the scalar `RrArbiter` (the reference
/// implementation retained in `crates/sim/tests/prop_blocks.rs`): the grant
/// is the first requesting index at or after the rotating-priority pointer,
/// wrapping once; the pointer then moves one past the winner. An all-clear
/// request set returns `None` and leaves the pointer untouched. The linear
/// scan is replaced by at most two `first_set_from` probes (mask off the bits
/// below the pointer + count trailing zeros) — one or two word operations on
/// a [`Mask64`], a word walk on a [`WordMask`].
///
/// Both fields are `u16` (a router has at most 64 × 64 input VCs) so an
/// arbiter embedded in a per-port record of the pipeline kernel costs half a
/// word.
#[derive(Clone, Debug)]
pub struct BitArbiter {
    next: u16,
    n: u16,
}

impl BitArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or does not fit `u16`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        let n = u16::try_from(n).expect("arbiter width fits u16");
        Self { next: 0, n }
    }

    /// Grants one of the requesting indices (set bits of `requests`),
    /// rotating priority so the winner moves to lowest priority.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not a request vector over `n` requesters
    /// ([`RequestSet::spans`]).
    #[inline]
    pub fn grant<R: RequestSet>(&mut self, requests: &R) -> Option<usize> {
        assert!(
            requests.spans(self.n as usize),
            "request vector size mismatch"
        );
        // First requester at or after the pointer, else wrap to the lowest
        // requester overall (which, when the first probe failed, is
        // necessarily below the pointer).
        let winner = requests
            .first_set_from(self.next as usize)
            .or_else(|| requests.first_set_from(0))?;
        // `winner < n`, so the increment cannot overflow; the compare wraps
        // the pointer without a division.
        let next = winner as u16 + 1;
        self.next = if next == self.n { 0 } else { next };
        Some(winner)
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Always false; arbiters are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rotating-priority pointer (exposed for equivalence tests).
    pub fn pointer(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_get_roundtrip_across_word_boundaries() {
        let mut m = WordMask::new(130);
        for bit in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!m.get(bit));
            m.set(bit);
            assert!(m.get(bit));
        }
        assert_eq!(m.popcount(), 8);
        m.clear(64);
        assert!(!m.get(64));
        assert_eq!(m.popcount(), 7);
        m.assign(64, true);
        m.assign(63, false);
        assert!(m.get(64) && !m.get(63));
    }

    #[test]
    fn iter_yields_set_bits_ascending() {
        let mut m = WordMask::new(200);
        let bits = [3, 64, 65, 130, 199];
        for &b in &bits {
            m.set(b);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), bits);
        assert_eq!((&m).into_iter().count(), bits.len());
    }

    #[test]
    fn first_set_from_handles_starts_and_wrapless_misses() {
        let mut m = WordMask::new(100);
        m.set(10);
        m.set(70);
        assert_eq!(m.first_set_from(0), Some(10));
        assert_eq!(m.first_set_from(10), Some(10));
        assert_eq!(m.first_set_from(11), Some(70));
        assert_eq!(m.first_set_from(70), Some(70));
        assert_eq!(m.first_set_from(71), None);
        assert_eq!(m.first_set_from(1000), None);
    }

    #[test]
    fn clear_all_and_any() {
        let mut m = WordMask::new(66);
        assert!(!m.any());
        m.set(65);
        assert!(m.any());
        m.clear_all();
        assert!(!m.any());
        assert_eq!(m.popcount(), 0);
    }

    #[test]
    fn retain_visits_ascending_and_clears_rejected_bits() {
        let mut m = WordMask::new(200);
        for b in [3, 64, 65, 130, 199] {
            m.set(b);
        }
        let mut seen = Vec::new();
        m.retain(|b| {
            seen.push(b);
            b % 2 == 0
        });
        assert_eq!(seen, vec![3, 64, 65, 130, 199]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![64, 130]);
    }

    #[test]
    fn mask64_tracks_bits_and_iterates_ascending() {
        let mut m = Mask64::EMPTY;
        assert!(!m.any());
        for bit in [63, 0, 17] {
            m.set(bit);
        }
        m.assign(5, true);
        m.assign(17, false);
        m.assign(17, false);
        assert!(m.get(0) && m.get(5) && m.get(63) && !m.get(17));
        assert_eq!(m.into_iter().collect::<Vec<_>>(), vec![0, 5, 63]);
        m.clear(0);
        let mut other = Mask64::EMPTY;
        other.set(5);
        assert_eq!((m & other).into_iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!((m & !other).into_iter().collect::<Vec<_>>(), vec![63]);
        assert_eq!(m, {
            let mut again = Mask64::default();
            again.set(63);
            again.set(5);
            again
        });
    }

    #[test]
    fn the_inline_word_and_the_heap_words_behave_alike() {
        // 64 positions is the widest mask that owns no heap word.
        for bits in [1, 63, 64, 65, 128, 129] {
            let mut m = WordMask::new(bits);
            let top = bits - 1;
            m.set(top);
            m.set(0);
            assert!(m.get(top) && m.get(0) && m.any());
            assert_eq!(m.first_set_from(1), (top > 0).then_some(top));
            assert_eq!(m.iter().last(), Some(top));
            m.retain(|b| b == top);
            assert_eq!(m.popcount(), 1);
            m.clear_all();
            assert!(!m.any());
        }
    }

    #[test]
    fn zero_width_mask_is_inert() {
        let m = WordMask::new(0);
        assert!(m.is_empty());
        assert!(!m.any());
        assert_eq!(m.iter().next(), None);
        assert_eq!(m.first_set_from(0), None);
    }

    #[test]
    fn arbiter_is_round_robin_fair() {
        let mut a = BitArbiter::new(3);
        let mut all = WordMask::new(3);
        (0..3).for_each(|b| all.set(b));
        let grants: Vec<usize> = (0..6).map(|_| a.grant(&all).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn arbiter_skips_idle_requesters_and_keeps_pointer_on_miss() {
        let mut a = BitArbiter::new(4);
        let mut m = WordMask::new(4);
        m.set(2);
        assert_eq!(a.grant(&m), Some(2));
        assert_eq!(a.pointer(), 3);
        m.set(0);
        assert_eq!(a.grant(&m), Some(0), "wraps past the rotated pointer");
        let empty = WordMask::new(4);
        let before = a.pointer();
        assert_eq!(a.grant(&empty), None);
        assert_eq!(a.pointer(), before, "no grant, no pointer movement");
    }

    #[test]
    fn arbiter_grants_from_one_word_sets_up_to_the_full_width() {
        let mut a = BitArbiter::new(Mask64::WIDTH);
        let mut m = Mask64::EMPTY;
        m.set(5);
        m.set(63);
        assert_eq!(a.grant(&m), Some(5));
        assert_eq!(a.grant(&m), Some(63));
        assert_eq!(a.pointer(), 0, "(63 + 1) % 64 wraps to zero");
        assert_eq!(a.grant(&m), Some(5));
        assert_eq!(a.grant(&Mask64::EMPTY), None);
        assert_eq!(a.pointer(), 6, "no grant, no pointer movement");
        assert_eq!(m.first_set_from(64), None, "one past the top bit");
        assert_eq!(m.first_set_from(63), Some(63));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn arbiter_rejects_a_one_word_request_beyond_its_width() {
        let mut m = Mask64::EMPTY;
        m.set(4);
        let _ = BitArbiter::new(4).grant(&m);
    }

    #[test]
    fn arbiter_wraps_to_lowest_index_at_word_scale() {
        let mut a = BitArbiter::new(130);
        let mut m = WordMask::new(130);
        m.set(5);
        m.set(129);
        assert_eq!(a.grant(&m), Some(5));
        assert_eq!(a.grant(&m), Some(129));
        assert_eq!(a.pointer(), 0, "(129 + 1) % 130 wraps to zero");
        assert_eq!(a.grant(&m), Some(5));
    }
}
