//! A persistent worker pool for deterministic fork/join parallelism.
//!
//! Campaign sweeps run their points on one process-global pool of worker
//! threads instead of spawning per call; each point is one simulation,
//! stepped serially by whichever thread claimed it. A batch is an indexed
//! job set `0..len`; threads claim indices one at a time as they become
//! free, so callers get load balancing while *result* placement stays
//! index-keyed and therefore deterministic: which thread runs which index is
//! unspecified, nothing else is.
//!
//! # How a batch runs
//!
//! All batch state is one [`Mutex`]-guarded record with two [`Condvar`]s.
//! The submitter *publishes* under the lock (job, `len`, the helper budget
//! `max_threads - 1`, one more batch on the `published` counter) and wakes
//! the workers asleep on `work`. A worker that sees a batch it has not
//! answered yet *joins* by taking one unit of the helper budget; with none
//! left it is beyond the caller's thread cap and goes back to sleep — the
//! cap is per call, so a `--threads 2` campaign occupies two threads however
//! many workers an earlier, wider caller spawned. Submitter and joined
//! workers alike *claim* the next index under the lock, run the job outside
//! it, and retake the lock to retire the index and claim another. The
//! submitter returns once it reads `unfinished == 0` under the lock (which
//! hands it every worker's writes), parking on `done` while stragglers run.
//! Every decision is taken on state read under the lock, so there is no
//! missed-wakeup protocol to get right. No batch allocates
//! (`tests/zero_alloc.rs`).

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

thread_local! {
    /// Set for the lifetime of every pool worker thread.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set while a thread is submitting a batch. Submitters take turns on a
    /// lock that is not re-entrant, so its jobs run nested batches inline.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a [`WorkerPool`] worker (how the counting
/// allocator of the allocation-audit tests attributes allocations to it).
pub fn is_worker_thread() -> bool {
    IN_WORKER.get()
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host's thread budget: its CPUs, capped by `NOC_THREADS`. The one
/// reading of the variable: a campaign's default worker count (and so the
/// width of the figure specs' runs).
///
/// # Errors
///
/// Returns a one-line message when `NOC_THREADS` is set to anything but a
/// positive integer (`lots`, `0`, `-2`), for the CLI to print.
pub fn host_threads() -> Result<usize, String> {
    let raw = std::env::var_os("NOC_THREADS");
    host_threads_from(raw.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// [`host_threads`] for a given `NOC_THREADS` value (`None`: unset). Pure, so
/// the rules are testable without `setenv`, which races the `getenv` of the
/// tests running beside it (undefined behavior on glibc).
pub fn host_threads_from(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(host_cpus());
    };
    match raw.parse::<usize>() {
        Ok(cap) if cap > 0 => Ok(host_cpus().min(cap)),
        _ => Err(format!(
            "NOC_THREADS must be a positive integer, got {raw:?}"
        )),
    }
}

/// The batch in flight; between batches, the drained one (`next == len`).
#[derive(Default)]
struct Batch {
    /// The job, its lifetime erased; `Some` exactly while the call to
    /// `run_limited_timed` that put it here has not returned.
    job: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Indices in the batch, and the next unclaimed one.
    len: usize,
    next: usize,
    /// Indices not yet retired (run, or abandoned after a panic).
    unfinished: usize,
    /// Batches published so far.
    published: u64,
    /// Workers that may still join: `max_threads - 1`, less those that did.
    helpers: usize,
    /// First panic payload captured from a job of this batch.
    panic: Option<Box<dyn Any + Send>>,
    /// Workers asleep on `work`; the submitter asleep on `done`. A notify
    /// nobody waits for is skipped.
    parked: usize,
    submitter_parked: bool,
    /// Workers spawned so far (grown on demand, never shrunk).
    workers: usize,
}

#[derive(Default)]
struct Shared {
    /// Submitters take turns: one batch in flight at a time.
    submit: Mutex<()>,
    batch: Mutex<Batch>,
    /// Workers park here between batches.
    work: Condvar,
    /// The submitter parks here waiting out stragglers.
    done: Condvar,
}

/// Jobs run outside the lock and nothing inside it can panic.
const UNPOISONED: &str = "no thread panics holding the pool lock";

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Batch> {
        self.batch.lock().expect(UNPOISONED)
    }
}

/// Claims and runs indices until none is unclaimed. Entered and left with
/// the lock held; each job runs outside it.
fn run_indices<'a>(shared: &'a Shared, mut batch: MutexGuard<'a, Batch>) -> MutexGuard<'a, Batch> {
    while batch.next < batch.len {
        let index = batch.next;
        batch.next += 1;
        let job = batch.job.expect("an unclaimed index has a job");
        drop(batch);
        // The index counts as unfinished until it is retired below, which is
        // what keeps `job` alive across this call (see the transmute);
        // `catch_unwind` keeps a panicking job from skipping that.
        let outcome = catch_unwind(AssertUnwindSafe(|| job(index)));
        batch = shared.lock();
        let mut retired = 1;
        if let Err(payload) = outcome {
            // Abandon what nobody has claimed, so the batch drains as soon
            // as the jobs in flight finish.
            retired += batch.len - batch.next;
            batch.next = batch.len;
            batch.panic.get_or_insert(payload);
        }
        batch.unfinished -= retired;
    }
    batch
}

/// A persistent pool of worker threads executing indexed batches (see the
/// [module docs](self)). Workers are spawned on demand, detached, and live
/// for the process lifetime, so pools other than [`global()`] are for tests.
#[derive(Default)]
pub struct WorkerPool(Arc<Shared>);

impl WorkerPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workers spawned so far.
    pub fn worker_count(&self) -> usize {
        self.0.lock().workers
    }

    /// Runs `job(i)` for every `i in 0..len`, using at most `max_threads`
    /// threads (the calling thread included), and returns once every index
    /// has executed.
    ///
    /// Runs inline — sequentially on the calling thread — when `len <= 1`,
    /// when `max_threads <= 1`, or when the caller is itself inside a batch
    /// job (nested submission, from a worker or a submitter's own share).
    ///
    /// If any job panics, the batch is abandoned after in-flight jobs finish
    /// and the first panic payload is re-raised on the calling thread; later
    /// batches on the same pool are unaffected.
    pub fn run_limited(&self, len: usize, max_threads: usize, job: &(dyn Fn(usize) + Sync)) {
        self.run_limited_timed(len, max_threads, job);
    }

    /// [`run_limited`](Self::run_limited), returning the nanoseconds the
    /// submitter waited for stragglers after running out of indices to claim
    /// (0, and no clock read, when the batch ran inline or drained before
    /// that).
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
        if len <= 1 || max_threads <= 1 || IN_WORKER.get() || IN_BATCH.get() {
            (0..len).for_each(job);
            return 0;
        }
        let s = &*self.0;
        let turn = s.submit.lock().expect("no submitter panics in its turn");
        // SAFETY: only the lifetime changes, and the reference is used only
        // while the borrow it was made from is live. `run_indices` alone
        // calls it, on an index claimed from this batch (`next < len` holds
        // for no other: a drained batch rests at `next == len`) and counted
        // in `unfinished` from the store below until after the call; this
        // function returns only after reading `unfinished == 0` and taking
        // the reference back out, and nothing in between unwinds — jobs run
        // under `catch_unwind`, and the one `resume_unwind` comes last.
        let job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        IN_BATCH.set(true);
        let mut batch = s.lock();
        batch.job = Some(job);
        batch.len = len;
        batch.next = 0;
        batch.helpers = (max_threads - 1).min(len - 1);
        while batch.workers < batch.helpers {
            let (name, shared) = (format!("noc-pool-{}", batch.workers), self.0.clone());
            let worker = std::thread::Builder::new().name(name);
            if worker.spawn(move || worker_loop(&shared)).is_err() {
                break; // out of threads: the batch runs on those there are
            }
            batch.workers += 1;
        }
        batch.unfinished = len;
        batch.published += 1;
        if batch.parked > 0 {
            s.work.notify_all();
        }
        // The submitter is one of the batch's threads; then it waits out
        // workers still running claimed indices.
        let mut batch = run_indices(s, batch);
        let start = (batch.unfinished != 0).then(Instant::now);
        while batch.unfinished != 0 {
            batch.submitter_parked = true;
            batch = s.done.wait(batch).expect(UNPOISONED);
        }
        batch.job = None;
        let payload = batch.panic.take();
        drop(batch);
        IN_BATCH.set(false);
        // Re-raising a job's panic with the turn held would poison it.
        drop(turn);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        start.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.set(true);
    // Batches this worker has answered. A fresh worker starts at zero and so
    // joins what is in flight: the batch that spawned it.
    let mut seen = 0;
    let mut batch = shared.lock();
    loop {
        while batch.published == seen {
            batch.parked += 1;
            batch = shared.work.wait(batch).expect(UNPOISONED);
            batch.parked -= 1;
        }
        seen = batch.published;
        // Beyond the caller's thread cap: sit this batch out.
        if batch.helpers == 0 {
            continue;
        }
        batch.helpers -= 1;
        batch = run_indices(shared, batch);
        // Whoever retires the last index gets here with the lock still held,
        // and wakes the submitter if it went to sleep.
        if batch.submitter_parked && batch.unfinished == 0 {
            batch.submitter_parked = false;
            shared.done.notify_one();
        }
    }
}

/// The process-global pool: the campaign scheduler's.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        pool.run_limited(hits.len(), 4, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn back_to_back_batches_stay_consistent() {
        // Thousands of tiny batches over the same pool, workers racing the
        // submitter for indices.
        let pool = WorkerPool::new();
        let sum = AtomicU64::new(0);
        for round in 0..2_000u64 {
            pool.run_limited(8, 3, &|i| {
                sum.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        // sum over rounds of (8*round + 0+..+7)
        let expected: u64 = (0..2_000u64).map(|r| 8 * r + 28).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn growing_batches_run_every_index_once_and_only_inside_the_call() {
        // Tiny back-to-back batches whose length keeps changing. A straggler
        // from the drained batch must not be able to claim against the next
        // batch's larger `len` before it is published: that would run an
        // index twice and let the submitter return with a job in flight.
        let pool = WorkerPool::new();
        let hits: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let inside = AtomicBool::new(false);
        for round in 0..200_000usize {
            let len = 2 + round % 7;
            inside.store(true, Ordering::SeqCst);
            pool.run_limited(len, 4, &|i| {
                assert!(inside.load(Ordering::SeqCst), "job ran outside its batch");
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            inside.store(false, Ordering::SeqCst);
            for (i, h) in hits.iter().enumerate() {
                let want = u32::from(i < len);
                assert_eq!(
                    h.swap(0, Ordering::Relaxed),
                    want,
                    "round {round} index {i}"
                );
            }
        }
    }

    /// A two-index batch where index 0 blocks until index 1 has run, so the
    /// batch can only drain if a *second* thread participates — on a cap-2
    /// pool, its one worker. A worker that never shows up turns into the
    /// bounded-poll panic below instead of a hang.
    fn batch_that_needs_both_threads(pool: &WorkerPool, round: usize) {
        let worker_jobs = AtomicU32::new(0);
        let unblocked = AtomicU32::new(0);
        pool.run_limited(2, 2, &|i| {
            if is_worker_thread() {
                worker_jobs.fetch_add(1, Ordering::SeqCst);
            }
            if i == 1 {
                unblocked.store(1, Ordering::SeqCst);
            } else {
                let mut polls = 0u64;
                while unblocked.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                    polls += 1;
                    assert!(polls < 50_000_000, "worker never came (round {round})");
                }
            }
        });
        // One submitter + one worker ran exactly one index each (whichever
        // claimed first).
        assert_eq!(worker_jobs.load(Ordering::SeqCst), 1, "round {round}");
    }

    #[test]
    fn parked_worker_is_woken() {
        // The worker is known to be asleep on the condvar before each round
        // that needs it: a lost wakeup fails the round.
        let pool = WorkerPool::new();
        for round in 0..10 {
            batch_that_needs_both_threads(&pool, round);
            let mut polls = 0u64;
            while pool.0.lock().parked != 1 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                polls += 1;
                assert!(polls < 60_000, "worker never parked (round {round})");
            }
        }
    }

    #[test]
    fn thread_cap_exclusion_parks_excluded_workers() {
        // A narrow batch on a wide pool: workers beyond the caller's cap must
        // sit out (never more than max_threads - 1 workers inside jobs), and
        // a later wide batch must still reach them.
        let pool = WorkerPool::new();
        pool.run_limited(8, 4, &|_| {}); // spawn 3 workers
        assert_eq!(pool.worker_count(), 3);

        let in_flight = AtomicU32::new(0);
        let peak = AtomicU32::new(0);
        for _ in 0..20 {
            pool.run_limited(64, 2, &|_| {
                if is_worker_thread() {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
            });
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 1,
            "cap 2 admits at most one worker, saw {}",
            peak.load(Ordering::SeqCst)
        );

        // The excluded (now parked) workers rejoin a wide batch: index 0
        // holds the batch open until all four threads are inside a job.
        let inside = AtomicU32::new(0);
        pool.run_limited(4, 4, &|_| {
            inside.fetch_add(1, Ordering::SeqCst);
            let mut polls = 0u64;
            while inside.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
                polls += 1;
                assert!(polls < 50_000_000, "an excluded worker never rejoined");
            }
        });
    }

    #[test]
    fn panic_on_one_thread_propagates_while_another_holds_a_job() {
        // Two threads share a two-index batch: index 0 runs until index 1
        // has been retired, so both the submitter and the worker hold one
        // job each; index 1 panics on whichever thread claimed it — when
        // that is the worker, this is the cross-thread abandon + re-raise
        // path.
        let pool = WorkerPool::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_limited(2, 2, &|i| {
                if i == 1 {
                    panic!("worker job failed");
                }
                let mut polls = 0u64;
                while pool.0.lock().unfinished > 1 {
                    std::thread::yield_now();
                    polls += 1;
                    assert!(polls < 50_000_000, "index 1 never retired");
                }
            });
        }));
        let payload = caught.expect_err("worker panic must re-raise on the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "worker job failed");

        // The pool survives for subsequent batches.
        let hits = AtomicU32::new(0);
        pool.run_limited(8, 2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn thread_cap_one_runs_inline() {
        let pool = WorkerPool::new();
        let main = std::thread::current().id();
        pool.run_limited(16, 1, &|_| {
            assert_eq!(std::thread::current().id(), main, "cap 1 must run inline");
        });
        assert_eq!(pool.worker_count(), 0, "no workers spawned for inline runs");
    }

    #[test]
    fn nested_submission_runs_inline() {
        // Every job re-enters the pool unconditionally: jobs claimed by
        // workers inline via IN_WORKER, jobs claimed by the submitting
        // thread inline via IN_BATCH. A deadlock here (the submitter
        // re-locking the non-reentrant submit mutex) hangs the test.
        let pool = global();
        let outer = AtomicU32::new(0);
        let inner = AtomicU32::new(0);
        pool.run_limited(16, 4, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            global().run_limited(3, 4, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 16);
        assert_eq!(inner.load(Ordering::Relaxed), 48);
    }

    #[test]
    fn nested_submission_runs_inline_on_a_private_pool() {
        // The same no-deadlock guarantee on a private pool, re-entering the
        // *same* pool from worker-claimed and submitter-claimed jobs alike.
        let pool = WorkerPool::new();
        let inner = AtomicU32::new(0);
        pool.run_limited(16, 4, &|_| {
            pool.run_limited(3, 4, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner.load(Ordering::Relaxed), 48);
    }

    #[test]
    fn submitter_thread_nested_submission_runs_inline() {
        // Deterministic coverage of the submitter-side path: put this thread
        // in exactly the state `run_limited` leaves it in while it executes
        // its share of a batch, then submit again. The nested call must run
        // inline on this thread, spawning nothing and touching no lock this
        // thread could already hold.
        let pool = WorkerPool::new();
        IN_BATCH.set(true);
        let me = std::thread::current().id();
        let hits = AtomicU32::new(0);
        pool.run_limited(4, 4, &|_| {
            assert_eq!(std::thread::current().id(), me, "must inline");
            hits.fetch_add(1, Ordering::Relaxed);
        });
        IN_BATCH.set(false);
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        assert_eq!(pool.worker_count(), 0, "inline runs spawn no workers");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new();
        let executed = AtomicU32::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_limited(64, 4, &|i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 40 {
                    panic!("job 40 failed");
                }
            });
        }));
        let payload = caught.expect_err("job panic must re-raise on the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 40 failed");
        // The failed batch abandons unclaimed indices rather than hanging.
        assert!(executed.load(Ordering::Relaxed) <= 64);

        // The pool is reusable: the next batch completes normally.
        let hits = AtomicU32::new(0);
        pool.run_limited(8, 4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn first_index_panic_propagates() {
        // Index 0 is claimed by the submitter or a worker depending on
        // timing; either path must re-raise instead of hanging or unwinding
        // mid-batch.
        let pool = WorkerPool::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_limited(4, 2, &|i| {
                if i == 0 {
                    panic!("first job failed");
                }
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn worker_cap_respects_max_threads() {
        let pool = WorkerPool::new();
        pool.run_limited(64, 3, &|_| {
            std::thread::yield_now();
        });
        // At most max_threads - 1 helpers are ever spawned for a batch.
        assert!(pool.worker_count() <= 2, "workers={}", pool.worker_count());
    }

    #[test]
    fn timed_run_reports_zero_for_inline_and_unwaited_batches() {
        let pool = WorkerPool::new();
        let hits = AtomicU32::new(0);
        // Inline path: cap 1.
        assert_eq!(
            pool.run_limited_timed(16, 1, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            }),
            0
        );
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        // Parallel path: the wait is whatever straggler time materialized;
        // the batch must still fully execute.
        let _wait = pool.run_limited_timed(16, 4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn host_threads_is_the_cpu_count_capped_by_a_valid_noc_threads() {
        // Through the pure function rather than by mutating NOC_THREADS:
        // setenv concurrent with getenv (other tests in this binary read
        // the environment) is undefined behavior on glibc.
        let cpus = host_cpus();
        assert_eq!(host_threads_from(None), Ok(cpus));
        assert_eq!(host_threads_from(Some("1")), Ok(1));
        assert_eq!(host_threads_from(Some("3")), Ok(cpus.min(3)));
        assert_eq!(host_threads_from(Some("1000000")), Ok(cpus), "a cap only");
        for hostile in ["0", "lots", "-2", "", "2 "] {
            assert_eq!(
                host_threads_from(Some(hostile)),
                Err(format!(
                    "NOC_THREADS must be a positive integer, got {hostile:?}"
                ))
            );
        }
        // Read-only against the real environment: whatever NOC_THREADS is
        // (or isn't) in this process, a budget is within the CPU count.
        assert!(host_threads().map_or(true, |n| (1..=cpus).contains(&n)));
    }
}
