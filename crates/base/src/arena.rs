//! Slab-backed flit storage: every flit in flight lives exactly once in a
//! [`FlitPool`], and everything else — input-VC ring buffers, the engine's
//! event vectors — moves a 4-byte [`FlitRef`] instead of the 40-byte
//! [`Flit`].
//!
//! # Why a pool
//!
//! The router's hot path is dominated by buffered-flit state. Before the
//! pool, every hop cloned a ~40-byte `Flit` through a FIFO, an outbox, a
//! lane, and another FIFO; with the pool a hop copies one `u32` and the flit
//! body is written once (at injection) and read in place. The slab is one
//! contiguous allocation sized from structural maxima at construction, so
//! the zero-steady-state-allocation invariant extends to flit storage.
//!
//! # Capacity is reserved, not touched
//!
//! The structural maximum is a safety bound (DESIGN.md §19) far above what a
//! run uses: a 32×32 mesh reserves ~98 k slots and keeps 3–6 k flits live. So
//! the slab is allocated *uninitialised* and the free list is a **bump mark
//! plus a LIFO of recycled indices**: a slot leaves it off the recycled stack
//! (most recently freed first) or, when that is empty, by advancing the mark
//! past a slot never handed out before. Live flits therefore stay dense at
//! the bottom of the slab — the highest index ever issued is bounded by peak
//! demand, not by capacity — and the pages above are never written, so the
//! kernel never maps them.
//!
//! No slot is read before it was written: indices enter circulation only
//! through the mark; an index reaches a reader only as a [`FlitRef`] minted
//! by `alloc_serial`, which writes the slot first; and every dereference
//! (`get`, `update`) first checks `index < issued` — in release builds too,
//! where it replaces the slice bounds check — so a forged, foreign or
//! [`FlitRef::INVALID`] handle panics instead of reading an unwritten slot.
//! (`free` reads nothing and, in release builds, checks nothing;
//! `alloc_serial` bounds-checks the index it writes, so a forged free ends
//! in a panic too.)
//! A recycled slot holds its previous flit: stale, but initialised.
//!
//! # Ownership discipline and thread safety
//!
//! `FlitPool` is shared (`Arc`) between one simulation's driver, routers and
//! network interfaces, all of which run on the thread stepping that
//! simulation. It has **no internal locking**; soundness rests on an
//! ownership discipline (DESIGN.md §19):
//!
//! - A `FlitRef` is *owned* by exactly one component at a time (a FIFO slot,
//!   an event-vector entry, an interface mid-receipt). Only the owner may
//!   read or write the referenced slot.
//! - Every method runs on the thread that steps the pool's simulation. The
//!   pool is `Sync` only so that a whole simulation may move to another
//!   thread (a campaign batch steps one point per thread); no two threads
//!   ever touch one pool at once.
//!
//! Interfaces allocate with [`FlitPool::alloc_serial`] and free with
//! [`FlitPool::free`], both on the one free list: the recycled stack and the
//! mark. [`FlitPool::alloc`], [`FlitPool::replenish`] and `new`'s second
//! argument are what is left of a sharded engine's per-shard stacks, kept
//! as forwards for the repository benchmark (`crates/bench/benchmark`, which
//! changes on its own schedule): delete them with its next change.
//!
//! # Generation tags
//!
//! In debug builds each slot carries an 8-bit generation, stamped into the
//! high byte of the `FlitRef` at allocation and bumped at free. Every
//! dereference and free checks the tag, so use-after-free and double-free
//! fail fast with a clear message. Release builds carry no tag (the high
//! byte is zero) and pay nothing.

use crate::flit::Flit;
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::mem::MaybeUninit;

/// Low 24 bits of a [`FlitRef`] are the slot index; high 8 the generation.
const INDEX_BITS: u32 = 24;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;

/// A 4-byte handle to a flit stored in a [`FlitPool`].
///
/// This is what queues, outboxes and lanes move; the flit body stays put in
/// the slab. Packing: low 24 bits slot index (so pools hold up to 2^24
/// flits), high 8 bits the debug-only generation tag (zero in release).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct FlitRef(u32);

// The whole point of the ref is that a hop copies 4 bytes; pin it (the ring
// buffers of `noc_sim::blocks::FifoBank` also lay refs out by hand).
const _: () = assert!(std::mem::size_of::<FlitRef>() == 4);
const _: () = assert!(std::mem::align_of::<FlitRef>() == 4);

impl FlitRef {
    /// A placeholder that dereferences to nothing, for arrays of refs whose
    /// real entries arrive later. Dereferencing it through a pool panics: its
    /// index is above every pool's bump mark.
    pub const INVALID: FlitRef = FlitRef(u32::MAX);

    /// The slot index within the owning pool.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }

    /// The generation tag (always 0 in release builds).
    #[inline]
    pub fn generation(self) -> u8 {
        (self.0 >> INDEX_BITS) as u8
    }
}

impl fmt::Debug for FlitRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FlitRef::INVALID {
            write!(f, "FlitRef(INVALID)")
        } else {
            write!(f, "FlitRef({}g{})", self.index(), self.generation())
        }
    }
}

/// A fixed-capacity slab of [`Flit`]s with a recycling free list.
///
/// See the [module docs](self) for the ownership discipline that makes the
/// unlocked sharing sound, for why no slot is read before it was written,
/// and for the generation-tag scheme.
pub struct FlitPool {
    /// Uninitialised at construction; slot `i` is written by the call that
    /// first issues it, and only slots below `issued` are read.
    slots: Box<[UnsafeCell<MaybeUninit<Flit>>]>,
    #[cfg(debug_assertions)]
    gens: Vec<UnsafeCell<u8>>,
    /// The recycled half of the free list: frees land here and leave before
    /// the mark advances. Reserved to `capacity` entries (untouched until
    /// used), so a free never allocates.
    recycled: UnsafeCell<Vec<u32>>,
    /// The bump mark: slots `issued..capacity` were never handed out. A
    /// plain word, not an atomic, so that the check every dereference makes
    /// against it optimises like the slice bounds check it replaces.
    issued: Cell<u32>,
}

// SAFETY: all interior mutability follows the discipline in the module docs
// — every holder of a pool belongs to one simulation, which one thread steps
// at a time, and a slot is touched only by the component owning its ref.
// Moving the simulation to another thread hands it the whole pool; the move
// itself (a batch's spawn and join, both synchronising) publishes its state.
unsafe impl Sync for FlitPool {}

impl FlitPool {
    /// The largest capacity a pool can have: what the 24-bit slot index of a
    /// [`FlitRef`] can name, less the index [`FlitRef::INVALID`] carries.
    pub const MAX_CAPACITY: usize = INDEX_MASK as usize;

    /// Creates a pool of `capacity` slots, reserving the slab and the free
    /// list without writing either. The second argument is ignored: a
    /// forward for the repository benchmark (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`MAX_CAPACITY`](Self::MAX_CAPACITY).
    pub fn new(capacity: usize, _shards: usize) -> Self {
        assert!(capacity > 0, "flit pool capacity must be nonzero");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "flit pool capacity {capacity} exceeds the 24-bit FlitRef index"
        );
        // SAFETY: `MaybeUninit<Flit>` has no validity requirement and
        // `UnsafeCell` is `repr(transparent)`, so an uninitialised
        // `UnsafeCell<MaybeUninit<Flit>>` is a valid value of its type.
        let slots = unsafe { Box::new_uninit_slice(capacity).assume_init() };
        Self {
            slots,
            #[cfg(debug_assertions)]
            gens: (0..capacity).map(|_| UnsafeCell::new(0)).collect(),
            recycled: UnsafeCell::new(Vec::with_capacity(capacity)),
            issued: Cell::new(0),
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots handed out at least once: every index a [`FlitRef`] of this
    /// pool ever carried is below it.
    pub fn issued(&self) -> usize {
        self.issued.get() as usize
    }

    /// Free slots: recycled ones plus those the mark has not reached.
    pub fn total_free(&self) -> usize {
        // SAFETY: one thread uses the pool at a time (module docs).
        let recycled = unsafe { (*self.recycled.get()).len() };
        recycled + self.capacity() - self.issued()
    }

    /// Writes `flit` into the free slot `idx` and mints its ref. The index
    /// is bounds-checked: in release builds `free` takes its argument on
    /// trust, so a free list can hold anything a caller forged.
    #[inline]
    fn fill(&self, idx: u32, flit: Flit) -> FlitRef {
        // SAFETY: a slot just taken off a free list has no other owner.
        unsafe { (*self.slots[idx as usize].get()).write(flit) };
        self.make_ref(idx)
    }

    /// Stamps the current generation of `idx` into a ref.
    #[inline]
    fn make_ref(&self, idx: u32) -> FlitRef {
        #[cfg(debug_assertions)]
        {
            // SAFETY: caller owns `idx` (it came off a free list it owns).
            let g = unsafe { *self.gens[idx as usize].get() };
            FlitRef(((g as u32) << INDEX_BITS) | idx)
        }
        #[cfg(not(debug_assertions))]
        FlitRef(idx)
    }

    /// Checks `r` against the bump mark (and, in debug builds, its
    /// generation) and returns the slot it names, which `fill` has written.
    #[inline]
    fn slot(&self, r: FlitRef) -> *mut Flit {
        let idx = r.index();
        // Not a debug assertion: memory safety rests on it.
        if idx >= self.issued() {
            self.dangling(r);
        }
        #[cfg(debug_assertions)]
        {
            // SAFETY: the owner of `r` is the only accessor of this slot.
            let g = unsafe { *self.gens[idx].get() };
            assert!(
                g == r.generation(),
                "stale {r:?}: slot generation is {g} (use-after-free)"
            );
        }
        // SAFETY: `idx < issued <= capacity`, and every slot below the mark
        // was initialised by the `fill` that first issued it.
        unsafe { (*self.slots.get_unchecked(idx).get()).as_mut_ptr() }
    }

    /// The failure of [`slot`](Self::slot)'s check, out of line so the check
    /// costs its callers a compare and a never-taken branch.
    #[cold]
    #[inline(never)]
    fn dangling(&self, r: FlitRef) -> ! {
        panic!(
            "dangling {r:?} (pool issued {} of {} slots)",
            self.issued(),
            self.slots.len()
        )
    }

    /// [`alloc_serial`](Self::alloc_serial), the shard ignored: a forward for
    /// the repository benchmark (module docs).
    #[inline]
    pub fn alloc(&self, _shard: usize, flit: Flit) -> FlitRef {
        self.alloc_serial(flit)
    }

    /// Allocates from the free list — a recycled slot, most recently
    /// freed first, or else the next one above the mark — and writes `flit`
    /// into it. How the engine's interfaces inject.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted: the engine sizes it from structural
    /// maxima, so exhaustion there means a credit-accounting bug (a flit
    /// outlived its buffer reservation).
    pub fn alloc_serial(&self, flit: Flit) -> FlitRef {
        // SAFETY: one thread uses the pool at a time (module docs).
        let recycled = unsafe { (*self.recycled.get()).pop() };
        let idx = recycled.unwrap_or_else(|| {
            // The next never-issued slot; past the last one `fill` panics.
            let issued = self.issued.get();
            assert!(
                (issued as usize) < self.slots.len(),
                "flit pool exhausted (capacity {}): \
                 structural bound violated — credit accounting bug",
                self.slots.len()
            );
            self.issued.set(issued + 1);
            issued
        });
        self.fill(idx, flit)
    }

    /// Reads the flit behind `r`.
    ///
    /// The returned borrow must not be held across a mutation of the same
    /// slot (the owner is the only accessor, so this is a per-call-site
    /// discipline, not a runtime property).
    #[inline]
    pub fn get(&self, r: FlitRef) -> &Flit {
        // SAFETY: the owner of `r` is the only accessor of this slot.
        unsafe { &*self.slot(r) }
    }

    /// Mutates the flit behind `r` in place.
    #[inline]
    pub fn update(&self, r: FlitRef, f: impl FnOnce(&mut Flit)) {
        // SAFETY: the owner of `r` is the only accessor of this slot, and
        // the &mut is confined to the closure call.
        f(unsafe { &mut *self.slot(r) });
    }

    /// Returns `r`'s slot to the free list.
    ///
    /// In debug builds this bumps the slot generation, so any surviving
    /// copy of `r` (use-after-free) or a second `free` (double-free) trips
    /// the generation check.
    #[inline]
    pub fn free(&self, r: FlitRef) {
        #[cfg(debug_assertions)]
        {
            self.slot(r); // the mark and generation checks
                          // SAFETY: one thread uses the pool at a time; bumping
                          // invalidates all existing refs.
            unsafe {
                let g = self.gens[r.index()].get();
                *g = (*g).wrapping_add(1);
            }
        }
        // SAFETY: one thread uses the pool at a time (module docs). The
        // list was reserved to `capacity`, so the push does not allocate.
        unsafe { (*self.recycled.get()).push(r.index() as u32) };
    }

    /// Does nothing: a forward for the repository benchmark (module docs).
    pub fn replenish(&self, _shard: usize, _target: usize) {}
}

impl fmt::Debug for FlitPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlitPool")
            .field("capacity", &self.slots.len())
            .field("issued", &self.issued())
            .finish_non_exhaustive()
    }
}

/// A neutral baseline flit for test harnesses and drivers to splat fields
/// over.
pub fn placeholder_flit() -> Flit {
    use crate::flit::{FlitKind, PacketClass, RouteInfo};
    use crate::ids::{NodeId, PacketId, PortIndex, VcIndex};
    use crate::policy::RouteMode;
    Flit {
        packet: PacketId::new(0),
        kind: FlitKind::Single,
        seq: 0,
        src: NodeId::new(0),
        dst: NodeId::new(0),
        vc: VcIndex::new(0),
        route: RouteInfo::new(PortIndex::new(0)),
        mode: RouteMode::default(),
        class: 0,
        injected_at: 0,
        packet_class: PacketClass::Data,
        express_hops: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn flit(tag: usize) -> Flit {
        Flit {
            src: NodeId::new(tag),
            ..placeholder_flit()
        }
    }

    #[test]
    fn alloc_reads_back_and_refs_stay_stable() {
        let pool = FlitPool::new(8, 1);
        let a = pool.alloc_serial(flit(1));
        let b = pool.alloc_serial(flit(2));
        assert_ne!(a, b);
        assert_eq!(pool.get(a).src, NodeId::new(1));
        assert_eq!(pool.get(b).src, NodeId::new(2));
        // A later allocation does not move earlier flits.
        let c = pool.alloc_serial(flit(3));
        assert_eq!(pool.get(a).src, NodeId::new(1));
        pool.update(b, |f| f.src = NodeId::new(9));
        assert_eq!(pool.get(b).src, NodeId::new(9));
        assert_eq!(pool.get(c).src, NodeId::new(3));
    }

    #[test]
    fn the_mark_follows_demand_and_recycled_slots_go_first() {
        // A large reservation costs nothing until used: two live flits
        // issue two slots, and churn reuses them instead of climbing.
        let pool = FlitPool::new(1 << 20, 1);
        assert_eq!((pool.issued(), pool.total_free()), (0, 1 << 20));
        let a = pool.alloc_serial(flit(1));
        let mut b = pool.alloc_serial(flit(2));
        assert_eq!((a.index(), b.index(), pool.issued()), (0, 1, 2));
        for round in 0..100 {
            pool.free(b);
            b = pool.alloc_serial(flit(round));
            assert_eq!(b.index(), 1, "the freed slot is the next one issued");
        }
        assert_eq!(pool.get(a).src, NodeId::new(1));
        assert_eq!((pool.issued(), pool.total_free()), (2, (1 << 20) - 2));
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn a_ref_above_the_mark_is_refused_in_every_build() {
        // Slot 3 exists but was never written; reading it would be reading
        // uninitialised memory, so the check is not a debug assertion.
        let big = FlitPool::new(8, 1);
        let refs: Vec<FlitRef> = (0..4).map(|i| big.alloc_serial(flit(i))).collect();
        let small = FlitPool::new(8, 1);
        let _ = small.alloc_serial(flit(0));
        let _ = small.get(refs[3]);
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn the_invalid_ref_is_refused() {
        let pool = FlitPool::new(8, 1);
        let _ = pool.alloc_serial(flit(0));
        let _ = pool.get(FlitRef::INVALID);
    }

    #[test]
    #[should_panic(expected = "flit pool exhausted")]
    fn exhaustion_panics_with_diagnosis() {
        let pool = FlitPool::new(1, 1);
        let _a = pool.alloc_serial(flit(1));
        let _b = pool.alloc_serial(flit(2));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "use-after-free")]
    fn stale_ref_is_caught_in_debug() {
        let pool = FlitPool::new(1, 1);
        let a = pool.alloc_serial(flit(1));
        pool.free(a);
        let _ = pool.get(a);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "use-after-free")]
    fn double_free_is_caught_in_debug() {
        let pool = FlitPool::new(1, 1);
        let a = pool.alloc_serial(flit(1));
        pool.free(a);
        pool.free(a);
    }
}
