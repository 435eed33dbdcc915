//! A persistent worker pool for parallel loop regions.
//!
//! Forking fresh threads with static chunking at *every* parallel region
//! leaves workers idle on the irregular inner bounds of the SoftRas/GAT
//! workloads, and the per-region spawn/join dominates small regions. This
//! module keeps a process-global set of long-lived workers and hands them regions as `[begin, end)` ranges with
//! work-queue dynamic chunking: each worker (including the submitting
//! thread) repeatedly claims the next `grain` iterations from an atomic
//! cursor until the range is drained.
//!
//! Guarantees:
//!
//! * **Panic propagation** — a panic inside any chunk is caught, the region
//!   is cancelled (the cursor is slammed to the end so no further chunks are
//!   claimed), and the first payload is re-raised on the submitting thread
//!   once every worker has left the region. Worker threads themselves
//!   survive: the pool stays usable for later regions.
//! * **No deadlock on nesting** — a region submitted from inside a worker
//!   (a nested parallel loop) runs inline on that worker; only top-level
//!   regions are distributed.
//! * **Zero-iteration regions** return immediately without touching the
//!   queue.
//!
//! The closure is shared by reference with its lifetime erased; soundness
//! comes from [`WorkerPool::try_run`] not returning until every worker has
//! finished with the region (`pending` reaches zero), so the reference never
//! outlives the caller's frame.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A chunk-range task: invoked as `task(lo, hi)` for each claimed chunk.
/// In a bare type alias the trait-object lifetime defaults to `'static`,
/// which is exactly what the erased [`Job::task`] field needs; the public
/// entry points take `&(dyn Fn(i64, i64) + Sync)` instead so callers can
/// pass closures borrowing their frame.
type Task = dyn Fn(i64, i64) + Sync;

/// One parallel region in flight.
struct Job {
    /// First iteration of the region (the chunk grid's origin).
    begin: i64,
    /// Unclaimed `[front, back)` range. Background helpers claim
    /// grid-aligned chunks ascending from the front; the submitting thread
    /// claims descending from the back. For a legal region chunk order is
    /// semantically free; for an *illegal* one (an unchecked parallelize of
    /// a loop-carried dependence) the two-ended order makes the divergence
    /// deterministic — it shows even when the OS never actually interleaves
    /// the workers, e.g. on a single-core host.
    range: Mutex<(i64, i64)>,
    /// Chunk size for dynamic scheduling.
    grain: i64,
    /// The region body, lifetime-erased (see module docs for why this is
    /// sound).
    task: &'static Task,
    /// Background workers still inside this region.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    done: Condvar,
    /// First panic payload raised by any chunk.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The owning pool's lifetime stats, bumped at each chunk claim.
    stats: Arc<PoolStats>,
}

/// Monotone lifetime statistics of a pool, kept as relaxed atomics so the
/// claim hot path costs one uncontended `fetch_add`. Engines sample
/// [`WorkerPool::stats`] before and after a run and publish the delta.
#[derive(Debug, Default)]
struct PoolStats {
    /// Regions distributed to the queue.
    regions: AtomicU64,
    /// Regions run inline (nested, single-worker, or single-chunk).
    inline_regions: AtomicU64,
    /// Chunks claimed by submitting threads (back end of the grid).
    chunks_submitter: AtomicU64,
    /// Chunks claimed by background helpers (front end of the grid).
    chunks_helper: AtomicU64,
    /// Peak queue depth ever observed at publish time.
    queue_peak: AtomicU64,
}

/// A point-in-time copy of a pool's lifetime statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStatsSnapshot {
    /// Regions distributed to the queue.
    pub regions: u64,
    /// Regions run inline without touching the queue.
    pub inline_regions: u64,
    /// Chunks claimed by submitting threads.
    pub chunks_submitter: u64,
    /// Chunks claimed by background helpers.
    pub chunks_helper: u64,
    /// Peak queue depth observed at publish time (monotone).
    pub queue_peak: u64,
}

impl PoolStatsSnapshot {
    /// Counters accumulated since `earlier` (the monotone peak is kept).
    pub fn delta_since(&self, earlier: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            regions: self.regions.saturating_sub(earlier.regions),
            inline_regions: self.inline_regions.saturating_sub(earlier.inline_regions),
            chunks_submitter: self.chunks_submitter.saturating_sub(earlier.chunks_submitter),
            chunks_helper: self.chunks_helper.saturating_sub(earlier.chunks_helper),
            queue_peak: self.queue_peak,
        }
    }

    /// Submitter/helper claim imbalance in percent: `0` when both ends
    /// drained the same number of chunks, `100` when one end did all the
    /// work. `None` when no chunks were claimed.
    pub fn imbalance_pct(&self) -> Option<u64> {
        let total = self.chunks_submitter + self.chunks_helper;
        if total == 0 {
            return None;
        }
        let diff = self.chunks_submitter.abs_diff(self.chunks_helper);
        Some(diff * 100 / total)
    }
}

impl Job {
    /// Claim the next grid-aligned chunk from the chosen end, or `None`
    /// when the range is drained. Both ends stay on the same chunk grid
    /// (`begin + k * grain`), so chunk indices — and everything built on
    /// them, like the VM's first-error-by-chunk order — are independent of
    /// who claimed what.
    fn claim(&self, from_back: bool) -> Option<(i64, i64)> {
        let mut r = self.range.lock().unwrap_or_else(|e| e.into_inner());
        let (front, back) = *r;
        if front >= back {
            return None;
        }
        if from_back {
            self.stats.chunks_submitter.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.chunks_helper.fetch_add(1, Ordering::Relaxed);
        }
        if from_back {
            // Grid-aligned start of the chunk containing `back - 1`.
            let lo = (self.begin + (back - 1 - self.begin) / self.grain * self.grain).max(front);
            *r = (front, lo);
            Some((lo, back))
        } else {
            let hi = (front + self.grain).min(back);
            *r = (hi, back);
            Some((front, hi))
        }
    }

    /// Claim and run one chunk from the chosen end. Returns `false` when
    /// the range is drained, or after recording a panic and cancelling the
    /// region.
    fn work_one(&self, from_back: bool) -> bool {
        let Some((lo, hi)) = self.claim(from_back) else {
            return false;
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(lo, hi))) {
            // Cancel: no worker claims further chunks of this region.
            let mut r = self.range.lock().unwrap_or_else(|e| e.into_inner());
            r.0 = r.1;
            drop(r);
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
            return false;
        }
        true
    }

    /// Claim and run chunks until the range is drained; record a panic and
    /// cancel the region if one occurs.
    fn work(&self, from_back: bool) {
        while self.work_one(from_back) {}
    }

    fn leave(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

struct PoolShared {
    /// Pending region handles; a region is pushed once per worker that
    /// should join it.
    queue: Mutex<Vec<Arc<Job>>>,
    available: Condvar,
    stats: Arc<PoolStats>,
}

thread_local! {
    /// Set while a pool worker (or a submitter) is executing region chunks;
    /// nested regions run inline instead of re-entering the queue.
    static IN_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A persistent pool of worker threads executing `[begin, end)` ranges with
/// dynamic chunking. See the module docs for the guarantees.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Number of background worker threads (the submitting thread always
    /// participates as one extra worker).
    background: usize,
}

impl WorkerPool {
    /// Build a pool with `background` long-lived worker threads.
    ///
    /// The submitting thread also executes chunks, so total parallelism of a
    /// region is `background + 1`.
    pub fn new(background: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Vec::new()),
            available: Condvar::new(),
            stats: Arc::new(PoolStats::default()),
        });
        for i in 0..background {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ft-worker-{i}"))
                .spawn(move || worker_loop(&sh))
                .expect("spawn pool worker");
        }
        WorkerPool {
            shared,
            background,
        }
    }

    /// The process-global pool, created on first use with one background
    /// worker per available core (minus the submitter), capped at 15. A
    /// process confined to one core gets none: every region runs inline on
    /// the submitting thread.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            WorkerPool::new(cores.saturating_sub(1).min(15))
        })
    }

    /// Number of background worker threads.
    pub fn background_workers(&self) -> usize {
        self.background
    }

    /// A point-in-time copy of the pool's monotone lifetime statistics.
    /// Sample before and after a run and use
    /// [`PoolStatsSnapshot::delta_since`] to attribute claims to the run.
    pub fn stats(&self) -> PoolStatsSnapshot {
        let s = &self.shared.stats;
        PoolStatsSnapshot {
            regions: s.regions.load(Ordering::Relaxed),
            inline_regions: s.inline_regions.load(Ordering::Relaxed),
            chunks_submitter: s.chunks_submitter.load(Ordering::Relaxed),
            chunks_helper: s.chunks_helper.load(Ordering::Relaxed),
            queue_peak: s.queue_peak.load(Ordering::Relaxed),
        }
    }

    /// Run `task` over `[begin, end)` with dynamic chunks of `grain`
    /// iterations, using at most `max_workers` concurrent workers (the
    /// submitting thread counts as one). Returns the first panic payload
    /// raised by any chunk, after all workers have left the region.
    ///
    /// # Errors
    ///
    /// The payload of the first panicking chunk.
    pub fn try_run(
        &self,
        begin: i64,
        end: i64,
        grain: i64,
        max_workers: usize,
        task: &(dyn Fn(i64, i64) + Sync),
    ) -> Result<(), Box<dyn std::any::Any + Send>> {
        if begin >= end {
            return Ok(());
        }
        let grain = grain.max(1);
        let helpers = max_workers
            .saturating_sub(1)
            .min(self.background)
            .min(((end - begin + grain - 1) / grain).max(0) as usize);
        // Nested region (submitted from inside another region's chunk), or
        // no helpers: run inline on this thread.
        if helpers == 0 || IN_REGION.with(|f| f.get()) {
            self.shared
                .stats
                .inline_regions
                .fetch_add(1, Ordering::Relaxed);
            return catch_unwind(AssertUnwindSafe(|| task(begin, end)));
        }
        let job = Arc::new(Job {
            begin,
            range: Mutex::new((begin, end)),
            grain,
            // SAFETY: the reference is only used by workers that `leave()`
            // the job before `pending` reaches zero, and we block below
            // until it does — the erased borrow cannot outlive this frame.
            task: unsafe {
                std::mem::transmute::<&(dyn Fn(i64, i64) + Sync), &'static Task>(task)
            },
            pending: Mutex::new(helpers),
            done: Condvar::new(),
            panic: Mutex::new(None),
            stats: Arc::clone(&self.shared.stats),
        });
        // The submitting thread runs its *first* chunk — the one at the back
        // of the range (see [`Job::range`]) — before the job is published to
        // helpers at all. For a legal region this is semantically free; for
        // an illegal one it makes the out-of-order execution observable on
        // every run: a parked helper can otherwise win the wake-up race and
        // drain the whole range in ascending order, hiding the bug on hosts
        // where the OS never interleaves the threads.
        IN_REGION.with(|f| f.set(true));
        let published = job.work_one(true);
        if published {
            self.shared.stats.regions.fetch_add(1, Ordering::Relaxed);
            {
                let mut q = self.shared.queue.lock().expect("pool queue poisoned");
                for _ in 0..helpers {
                    q.push(Arc::clone(&job));
                }
                self.shared
                    .stats
                    .queue_peak
                    .fetch_max(q.len() as u64, Ordering::Relaxed);
            }
            self.shared.available.notify_all();
            job.work(true);
        }
        IN_REGION.with(|f| f.set(false));
        if published {
            // Block until every background worker has left the region; this
            // is what makes the lifetime erasure above sound.
            let mut pending = job.pending.lock().unwrap_or_else(|e| e.into_inner());
            while *pending > 0 {
                pending = job
                    .done
                    .wait(pending)
                    .unwrap_or_else(|e| e.into_inner());
            }
            drop(pending);
        }
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        match payload {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }
}

/// Pick a dynamic-scheduling chunk size for a region of `trip` iterations
/// whose body costs roughly `body_cost` abstract units (e.g. bytecode
/// instructions) per iteration.
///
/// Two pressures: chunks must be *large* enough that the per-chunk claim
/// (one locked range update plus the claimer's scratch state) amortizes
/// against `TARGET_CHUNK_COST` units of real work, and *small* enough that
/// `workers` threads each see several chunks for load balancing. The
/// result is a pure function of its arguments, so chunk boundaries are
/// reproducible.
pub fn grain_for(trip: i64, workers: usize, body_cost: u64) -> i64 {
    const TARGET_CHUNK_COST: u64 = 16_384;
    if trip <= 0 {
        return 1;
    }
    let by_cost = (TARGET_CHUNK_COST / body_cost.max(1)).max(1) as i64;
    let workers = workers.max(1) as i64;
    // At least 4 chunks per worker when the range allows it.
    let by_balance = (trip / (workers * 4)).max(1);
    by_cost.min(by_balance).max(1)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.pop() {
                    break job;
                }
                q = shared.available.wait(q).expect("pool queue poisoned");
            }
        };
        IN_REGION.with(|f| f.set(true));
        job.work(false);
        IN_REGION.with(|f| f.set(false));
        job.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

    fn sum_region(pool: &WorkerPool, n: i64, grain: i64, workers: usize) -> i64 {
        let acc = AtomicI64::new(0);
        pool.try_run(0, n, grain, workers, &|lo, hi| {
            let mut s = 0;
            for i in lo..hi {
                s += i;
            }
            acc.fetch_add(s, Ordering::Relaxed);
        })
        .unwrap();
        acc.load(Ordering::Relaxed)
    }

    #[test]
    fn covers_every_iteration_exactly_once() {
        let pool = WorkerPool::new(3);
        for n in [1i64, 7, 100, 10_000] {
            for grain in [1i64, 3, 64, 10_000] {
                assert_eq!(sum_region(&pool, n, grain, 4), n * (n - 1) / 2);
            }
        }
    }

    #[test]
    fn zero_and_negative_ranges_return_immediately() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.try_run(0, 0, 1, 4, &|_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        pool.try_run(5, 5, 1, 4, &|_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        pool.try_run(10, 3, 1, 4, &|_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        // And the pool still works afterwards.
        assert_eq!(sum_region(&pool, 10, 2, 3), 45);
    }

    #[test]
    fn panic_propagates_and_pool_stays_usable() {
        let pool = WorkerPool::new(3);
        for round in 0..3 {
            let err = pool
                .try_run(0, 1000, 8, 4, &|lo, hi| {
                    for i in lo..hi {
                        assert!(i != 500, "boom in round {round}");
                    }
                })
                .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom"), "unexpected payload: {msg}");
            // The same pool must keep scheduling work correctly.
            assert_eq!(sum_region(&pool, 1000, 8, 4), 1000 * 999 / 2);
        }
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let pool = WorkerPool::new(2);
        let acc = AtomicI64::new(0);
        pool.try_run(0, 8, 1, 3, &|lo, hi| {
            for _ in lo..hi {
                // A nested region from inside a worker: must not deadlock,
                // and must still cover its range.
                pool.try_run(0, 16, 4, 3, &|ilo, ihi| {
                    acc.fetch_add(ihi - ilo, Ordering::Relaxed);
                })
                .unwrap();
            }
        })
        .unwrap();
        assert_eq!(acc.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn grain_larger_than_range_uses_single_chunk() {
        let pool = WorkerPool::new(2);
        let chunks = AtomicUsize::new(0);
        pool.try_run(0, 10, 1_000_000, 4, &|lo, hi| {
            assert_eq!((lo, hi), (0, 10));
            chunks.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(chunks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn max_workers_one_runs_inline() {
        let pool = WorkerPool::new(2);
        let main = std::thread::current().id();
        pool.try_run(0, 100, 1, 1, &|_, _| {
            assert_eq!(std::thread::current().id(), main);
        })
        .unwrap();
    }

    #[test]
    fn grain_heuristic_bounds() {
        // Cheap bodies get big chunks, capped by the cost target.
        assert_eq!(grain_for(1 << 20, 4, 1), 16_384);
        // Short ranges are capped by load balancing instead.
        assert_eq!(grain_for(64, 4, 1), 4);
        // Expensive bodies get small chunks, never below 1.
        assert_eq!(grain_for(1 << 20, 4, 1 << 30), 1);
        // Tiny trip counts stay valid.
        assert_eq!(grain_for(1, 8, 10), 1);
        assert_eq!(grain_for(0, 8, 10), 1);
        // Deterministic: same inputs, same grain.
        assert_eq!(grain_for(12345, 7, 99), grain_for(12345, 7, 99));
    }

    #[test]
    fn stats_attribute_chunks_and_regions() {
        let pool = WorkerPool::new(2);
        let before = pool.stats();
        // 100 iterations in grain-4 chunks: 25 chunks split between the
        // submitter (back end) and helpers (front end).
        assert_eq!(sum_region(&pool, 100, 4, 3), 100 * 99 / 2);
        let d = pool.stats().delta_since(&before);
        assert_eq!(d.regions + d.inline_regions, 1);
        assert_eq!(d.chunks_submitter + d.chunks_helper, 25);
        assert!(d.imbalance_pct().is_some());
        // An inline region (max_workers == 1) claims no chunks.
        let before = pool.stats();
        assert_eq!(sum_region(&pool, 10, 1, 1), 45);
        let d = pool.stats().delta_since(&before);
        assert_eq!((d.regions, d.inline_regions), (0, 1));
        assert_eq!(d.chunks_submitter + d.chunks_helper, 0);
    }

    #[test]
    fn imbalance_pct_edges() {
        let even = PoolStatsSnapshot {
            chunks_submitter: 8,
            chunks_helper: 8,
            ..PoolStatsSnapshot::default()
        };
        assert_eq!(even.imbalance_pct(), Some(0));
        let lopsided = PoolStatsSnapshot {
            chunks_submitter: 10,
            chunks_helper: 0,
            ..PoolStatsSnapshot::default()
        };
        assert_eq!(lopsided.imbalance_pct(), Some(100));
        assert_eq!(PoolStatsSnapshot::default().imbalance_pct(), None);
    }

    #[test]
    fn global_pool_is_shared_and_reusable() {
        let pool = WorkerPool::global();
        assert_eq!(sum_region(pool, 5000, 16, 4), 5000i64 * 4999 / 2);
        assert_eq!(sum_region(pool, 5000, 16, 4), 5000i64 * 4999 / 2);
    }
}
