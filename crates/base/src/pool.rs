//! Deterministic fork/join parallelism over indexed batches.
//!
//! Campaign sweeps run their points as one batch; each point is one
//! simulation, stepped serially by whichever thread claimed it. A batch is
//! an indexed job set `0..len`; threads claim indices one at a time as they
//! become free, so callers get load balancing while *result* placement stays
//! index-keyed and therefore deterministic: which thread runs which index is
//! unspecified, nothing else is.
//!
//! # How a batch runs
//!
//! On scoped threads ([`std::thread::scope`]): the caller spawns at most
//! `min(max_threads, len) - 1` helpers and works beside them, every thread
//! claiming the next index from one [`AtomicUsize`]. The call returns once
//! every helper has been joined, so no thread outlives its batch, and the
//! join hands the caller every helper's writes. A job that panics abandons
//! the indices nobody has claimed yet; the jobs in flight finish, and the
//! caller re-raises a panic payload after the last join. A spawn that fails
//! leaves the batch to the threads that started. Each batch spawns its own
//! threads: a campaign runs one batch, so it pays that once.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::Builder;
use std::time::Instant;

thread_local! {
    /// Set on every thread a batch spawns.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread was spawned by a batch (how the
/// allocation-audit test checks that a job really ran on one).
pub fn is_worker_thread() -> bool {
    IN_WORKER.get()
}

/// The host's thread budget: its CPUs. A campaign's default worker count
/// (and so the width of the figure specs' runs).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Claims and runs indices of `0..len` from `next` until none is left, or
/// until a job panics: then the unclaimed indices are abandoned and the
/// payload returned. The counter publishes nothing but the index (the join
/// publishes what the jobs wrote), so its operations are `Relaxed`.
fn claim(
    next: &AtomicUsize,
    len: usize,
    job: &(dyn Fn(usize) + Sync),
) -> Option<Box<dyn Any + Send>> {
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= len {
            return None;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(index))) {
            next.store(len, Ordering::Relaxed);
            return Some(payload);
        }
    }
}

/// The batch runner (see the [module docs](self)). It holds nothing: every
/// batch brings its own threads.
pub struct WorkerPool;

impl WorkerPool {
    /// Runs `job(i)` for every `i in 0..len`, using at most `max_threads`
    /// threads (the calling thread included), and returns once every index
    /// has executed.
    ///
    /// Runs inline — sequentially on the calling thread — when `len <= 1`
    /// or `max_threads <= 1`.
    ///
    /// If any job panics, the batch is abandoned after in-flight jobs finish
    /// and a panic payload — the calling thread's own, else that of the
    /// first-spawned thread that has one — is re-raised on the calling
    /// thread.
    pub fn run_limited(&self, len: usize, max_threads: usize, job: &(dyn Fn(usize) + Sync)) {
        self.run_limited_timed(len, max_threads, job);
    }

    /// [`run_limited`](Self::run_limited), returning the nanoseconds the
    /// calling thread spent joining its helpers after running out of indices
    /// to claim (0, and no clock read, when the batch ran inline).
    ///
    /// Kept only because the repository benchmark (`crates/bench/benchmark`,
    /// which changes on its own schedule) reports the wait as a per-layer
    /// metric; fold it into `run_limited` when that metric goes.
    pub fn run_limited_timed(
        &self,
        len: usize,
        max_threads: usize,
        job: &(dyn Fn(usize) + Sync),
    ) -> u64 {
        let helpers = max_threads.min(len).saturating_sub(1);
        if helpers == 0 {
            (0..len).for_each(job);
            return 0;
        }
        let next = AtomicUsize::new(0);
        let helper = || {
            IN_WORKER.set(true);
            claim(&next, len, job)
        };
        let (payload, waited) = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..helpers)
                .map_while(|_| Builder::new().spawn_scoped(scope, helper).ok())
                .collect();
            let mut payload = claim(&next, len, job);
            let start = Instant::now();
            for helper in spawned {
                let theirs = helper.join().expect("jobs unwind only into `claim`");
                payload = payload.or(theirs);
            }
            (payload, start.elapsed())
        });
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        waited.as_nanos() as u64
    }
}

/// [`WorkerPool`] by reference: a forward for the repository benchmark
/// (`crates/bench/benchmark`), which still calls it; delete it with that
/// driver's next change.
pub fn global() -> &'static WorkerPool {
    &WorkerPool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    /// The distinct threads that ran the jobs of one batch.
    fn threads_of(len: usize, max_threads: usize) -> usize {
        let seen = Mutex::new(HashSet::new());
        WorkerPool.run_limited(len, max_threads, &|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::yield_now();
        });
        seen.into_inner().unwrap().len()
    }

    #[test]
    fn runs_every_index_exactly_once() {
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        WorkerPool.run_limited(hits.len(), 4, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_batch_runs_on_no_more_threads_than_its_cap_or_its_length() {
        let capped = threads_of(64, 3);
        assert!(capped <= 3, "cap 3 ran on {capped} threads");
        // The widest cap is bounded by the length: three indices start at
        // most two threads beside the caller.
        let widest = threads_of(3, usize::MAX);
        assert!(widest <= 3, "three indices ran on {widest} threads");
    }

    #[test]
    fn thread_cap_one_runs_inline() {
        let main = std::thread::current().id();
        WorkerPool.run_limited(16, 1, &|_| {
            assert_eq!(std::thread::current().id(), main, "cap 1 must run inline");
        });
    }

    #[test]
    fn nested_batches_run_every_index() {
        // Every job of a batch submits a batch of its own, from the calling
        // thread and from spawned ones alike.
        let inner = AtomicU32::new(0);
        WorkerPool.run_limited(4, 2, &|_| {
            WorkerPool.run_limited(3, 2, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner.load(Ordering::Relaxed), 12);
    }

    /// The message of the panic a two-index batch re-raises when the job on
    /// the calling thread (`on_spawned = false`) or the one on the spawned
    /// thread fails. Each job waits until both have started, so each thread
    /// holds exactly one; a helper that never starts ends in the bounded
    /// poll's panic instead of a hang.
    fn reraised(on_spawned: bool) -> &'static str {
        let started = AtomicU32::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool.run_limited(2, 2, &|_| {
                started.fetch_add(1, Ordering::SeqCst);
                let mut polls = 0u64;
                while started.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                    polls += 1;
                    assert!(polls < 50_000_000, "the second job never started");
                }
                match (is_worker_thread(), on_spawned) {
                    (true, true) => panic!("the spawned thread's job failed"),
                    (false, false) => panic!("the caller's job failed"),
                    _ => {}
                }
            });
        }));
        let payload = caught.expect_err("a job's panic re-raises on the caller");
        payload.downcast_ref::<&str>().copied().unwrap_or_default()
    }

    #[test]
    fn a_panic_on_the_calling_thread_reraises_its_payload() {
        assert_eq!(reraised(false), "the caller's job failed");
    }

    #[test]
    fn a_panic_on_a_spawned_thread_reraises_its_payload() {
        assert_eq!(reraised(true), "the spawned thread's job failed");
    }

    #[test]
    fn a_panicking_batch_leaves_the_next_one_whole() {
        let executed = AtomicU32::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool.run_limited(64, 4, &|i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 40 {
                    panic!("job 40 failed");
                }
            });
        }));
        let payload = caught.expect_err("job panic must re-raise on the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 40 failed");
        assert!(executed.load(Ordering::Relaxed) <= 64);

        let hits = AtomicU32::new(0);
        WorkerPool.run_limited(8, 4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn first_index_panic_propagates() {
        // Index 0 is claimed by the caller or a spawned thread depending on
        // timing; either path must re-raise instead of hanging.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool.run_limited(4, 2, &|i| {
                if i == 0 {
                    panic!("first job failed");
                }
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn timed_run_reports_zero_for_inline_batches() {
        let hits = AtomicU32::new(0);
        let count = |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        assert_eq!(WorkerPool.run_limited_timed(16, 1, &count), 0);
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        // A parallel batch reports whatever its joins took, and runs whole.
        let _wait = WorkerPool.run_limited_timed(16, 4, &count);
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }
}
