//! The shared scan-executor pool: persistent worker threads for all
//! unit-granular work.
//!
//! §II-D of the paper makes the BLOT execution model explicitly
//! parallel ("it is straightforward to conduct parallel query
//! processing by scanning multiple partitions simultaneously"), and a
//! production store serves *many* queries at once. Spawning a fresh set
//! of OS threads per query pays thread-creation latency on every call
//! and oversubscribes the host as soon as queries overlap. A
//! [`ScanExecutor`] is instead created once (per [`BlotStore`-like
//! owner]) and shared by every scan, encode, decode and verify task the
//! store issues.
//!
//! Design:
//!
//! * **Fixed-size pool** — sized from
//!   [`std::thread::available_parallelism`] by default; workers park on
//!   a condition variable when idle, so an idle pool costs nothing.
//! * **Ordered batches** — [`ScanExecutor::execute_all`] takes a vector
//!   of closures and returns their results *in task order*, whatever
//!   order they finished in.
//! * **Fail-fast** — the first task that returns a [`StorageError`]
//!   aborts the batch: tasks that have not started yet are skipped
//!   (their slots are abandoned) and the triggering error is returned,
//!   matching the failed-MapReduce-job semantics of the paper's
//!   evaluation setup.
//! * **Panic containment** — a panicking task is caught with
//!   [`std::panic::catch_unwind`] and surfaces as
//!   [`StorageError::WorkerPanicked`]; the worker thread itself
//!   survives and keeps serving later batches.
//! * **Caller participation** — the submitting thread does not just
//!   block: while its batch is unfinished it pops queued tasks (its own
//!   or another batch's) and runs them. This guarantees progress even
//!   when every worker is busy — including re-entrant
//!   [`execute_all`](ScanExecutor::execute_all) calls issued from
//!   inside a task — so the pool cannot deadlock on nesting.

#![allow(clippy::disallowed_methods)]
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blot_obs::{Counter, Gauge, Histogram, MetricsRegistry, Span};

use crate::sync::Mutex;
use crate::StorageError;

/// A queued unit of work, type-erased.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the executor handle and its workers.
struct Shared {
    /// FIFO of queued jobs.
    jobs: Mutex<VecDeque<Job>>,
    /// Signalled when a job is queued (or shutdown begins).
    available: Condvar,
    /// Set once, on drop: workers exit instead of waiting.
    shutdown: AtomicBool,
}

/// Per-batch state shared between `execute_all` and its queued tasks.
struct Batch<T> {
    /// One slot per task, filled in task order.
    slots: Mutex<BatchSlots<T>>,
    /// Signalled when the last task of the batch finishes.
    done: Condvar,
    /// Set when a task errored or panicked: unstarted tasks are skipped.
    aborted: AtomicBool,
}

struct BatchSlots<T> {
    results: Vec<Option<T>>,
    /// Tasks not yet finished (or skipped).
    remaining: usize,
    /// The error that triggered the abort, if any.
    first_error: Option<StorageError>,
}

/// Instrument handles for one pool, fetched once from a
/// [`MetricsRegistry`] and cloned into queued jobs.
#[derive(Debug)]
struct PoolMetrics {
    /// Jobs currently sitting in the queue (decremented when a job is
    /// popped and run, whether or not its batch was already aborted).
    queue_depth: Gauge,
    /// Tasks executed on the inline fast path (≤ 1 worker or 1 task).
    inline_tasks: Counter,
    /// Tasks that went through the job queue.
    pooled_tasks: Counter,
    /// Tasks whose closure panicked (inline or pooled); each also
    /// surfaces as [`StorageError::WorkerPanicked`] to its batch.
    worker_panics: Counter,
    /// Wall-clock milliseconds per `execute_all` batch (the batch's
    /// real makespan, caller participation included).
    batch_ms: Histogram,
}

/// A persistent, fixed-size worker pool executing ordered, fail-fast
/// batches of fallible tasks.
///
/// See the [module docs](self) for the execution model. Cloning is not
/// supported directly — share one executor with [`Arc`].
pub struct ScanExecutor {
    shared: Arc<Shared>,
    /// Join handles, drained by [`shutdown`](Self::shutdown) (which
    /// takes `&self` — hence the mutex) or by `Drop`.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Live worker count: `workers.len()` until shutdown, then 0. Kept
    /// separately so the `execute_all` fast-path check stays lock-free.
    threads: AtomicUsize,
    /// Set once by [`attach_metrics`](Self::attach_metrics); `None`
    /// until an owner registers the pool, so an unowned pool records
    /// nothing.
    metrics: OnceLock<PoolMetrics>,
}

impl std::fmt::Debug for ScanExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanExecutor")
            .field("threads", &self.threads())
            .finish_non_exhaustive()
    }
}

impl Default for ScanExecutor {
    fn default() -> Self {
        Self::with_default_parallelism()
    }
}

impl ScanExecutor {
    /// Creates a pool with `threads` workers (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers: Vec<JoinHandle<()>> = (0..threads)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                // A failed spawn only shrinks the pool: the submitting
                // thread participates in every batch, so even a pool
                // with zero workers makes progress.
                std::thread::Builder::new()
                    .name(format!("blot-scan-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        let count = workers.len();
        Self {
            shared,
            workers: Mutex::new(workers),
            threads: AtomicUsize::new(count),
            metrics: OnceLock::new(),
        }
    }

    /// Registers this pool's instruments (queue depth, inline vs pooled
    /// task counts, worker panics, per-batch makespan) in `registry`
    /// under the `pool.*` names. The first call wins: a pool shared
    /// across stores reports into the registry of the store that
    /// attached first, and later calls are no-ops.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        // First call wins; a later call's `Err` only hands the unused
        // instruments back.
        #[allow(clippy::let_underscore_must_use)]
        let _ = self.metrics.set(PoolMetrics {
            queue_depth: registry.gauge("pool.queue_depth"),
            inline_tasks: registry.counter("pool.tasks_inline"),
            pooled_tasks: registry.counter("pool.tasks_pooled"),
            worker_panics: registry.counter("pool.worker_panics"),
            batch_ms: registry.histogram("pool.batch_ms"),
        });
    }

    /// Creates a pool sized from [`std::thread::available_parallelism`]
    /// (falling back to 4 workers when the host will not say).
    #[must_use]
    pub fn with_default_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get))
    }

    /// Number of worker threads actually running (0 after
    /// [`shutdown`](Self::shutdown); batches then run inline on the
    /// submitting thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Acquire)
    }

    /// Gracefully stops the pool: waits (up to `timeout`) for the job
    /// queue to drain, then signals the workers to exit and joins them
    /// with whatever budget remains. Returns `true` when the queue
    /// drained and every worker was joined inside the deadline; `false`
    /// leaves stragglers detached (they still exit once their current
    /// job finishes).
    ///
    /// The pool stays usable afterwards in a degraded mode: with zero
    /// workers every later `execute_all` runs inline on the submitting
    /// thread, so nothing that still holds the pool breaks. Calling
    /// `shutdown` twice is a cheap no-op the second time.
    pub fn shutdown(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let poll = Duration::from_millis(2);
        // Drain first: queued jobs belong to in-flight `execute_all`
        // batches whose callers are participating right now. Workers
        // check the shutdown flag *before* popping, so flipping the
        // flag early would abandon queued jobs to their (single)
        // submitting thread and serialize the tail of every batch.
        let mut drained = false;
        loop {
            if self.shared.jobs.lock().is_empty() {
                drained = true;
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(poll);
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        self.threads.store(0, Ordering::Release);
        let mut joined_all = true;
        for handle in handles {
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(poll);
            }
            if handle.is_finished() {
                // An `Err` is a worker's panic payload; queued jobs run
                // under `catch_unwind` and already reported theirs.
                #[allow(clippy::let_underscore_must_use)]
                let _ = handle.join();
            } else {
                // Deadline blown: detach. The worker exits on its own
                // as soon as its current job returns.
                joined_all = false;
            }
        }
        drained && joined_all
    }

    /// Runs every task of the batch on the pool (the calling thread
    /// participates) and returns their results in task order.
    ///
    /// # Errors
    ///
    /// Fails fast: the first task to return a [`StorageError`] aborts
    /// the batch — tasks that have not started are skipped — and that
    /// error is returned. A panicking task aborts the batch the same
    /// way with [`StorageError::WorkerPanicked`].
    pub fn execute_all<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, StorageError>
    where
        F: FnOnce() -> Result<T, StorageError> + Send + 'static,
        T: Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let metrics = self.metrics.get();
        let _batch_span = metrics.map(|m| Span::start(&m.batch_ms));
        // Inline fast path: with at most one worker (or one task) there
        // is no parallelism to win, so the job queue's lock/wakeup
        // traffic and the caller↔worker context switches are pure
        // overhead — measurably so on single-core hosts. Semantics are
        // identical: task order, fail-fast, panics surface as
        // `WorkerPanicked`.
        if self.threads() <= 1 || n == 1 {
            if let Some(m) = metrics {
                m.inline_tasks.add(n as u64);
            }
            let mut out = Vec::with_capacity(n);
            for task in tasks {
                match catch_unwind(AssertUnwindSafe(task)) {
                    Ok(Ok(value)) => out.push(value),
                    Ok(Err(e)) => return Err(e),
                    Err(_panic) => {
                        if let Some(m) = metrics {
                            m.worker_panics.inc();
                        }
                        return Err(StorageError::WorkerPanicked);
                    }
                }
            }
            return Ok(out);
        }
        let batch: Arc<Batch<T>> = Arc::new(Batch {
            slots: Mutex::new(BatchSlots {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
                first_error: None,
            }),
            done: Condvar::new(),
            aborted: AtomicBool::new(false),
        });

        // Queue every task, then wake the workers once. Metric handles
        // are cloned into each job so recording stays lock-free on the
        // worker side.
        let depth = metrics.map(|m| m.queue_depth.clone());
        let panics = metrics.map(|m| m.worker_panics.clone());
        if let Some(m) = metrics {
            m.pooled_tasks.add(n as u64);
            m.queue_depth.add(i64::try_from(n).unwrap_or(i64::MAX));
        }
        {
            let mut jobs = self.shared.jobs.lock();
            for (i, task) in tasks.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let depth = depth.clone();
                let panics = panics.clone();
                jobs.push_back(Box::new(move || {
                    if let Some(d) = &depth {
                        d.add(-1);
                    }
                    let panicked = run_task(&batch, i, task);
                    if panicked {
                        if let Some(p) = &panics {
                            p.inc();
                        }
                    }
                }));
            }
        }
        self.shared.available.notify_all();

        // Participate until this batch is finished: run queued jobs
        // (any batch's), and only park when the queue is empty.
        loop {
            if batch.slots.lock().remaining == 0 {
                break;
            }
            let job = self.shared.jobs.lock().pop_front();
            match job {
                Some(job) => job(),
                None => {
                    let mut slots = batch.slots.lock();
                    while slots.remaining > 0 {
                        slots = batch
                            .done
                            .wait(slots)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    break;
                }
            }
        }

        let mut slots = batch.slots.lock();
        if let Some(e) = slots.first_error.take() {
            return Err(e);
        }
        // No error and no abort ⇒ every slot was filled; a hole can
        // only mean the batch bookkeeping itself was unwound.
        let mut out = Vec::with_capacity(n);
        for slot in &mut slots.results {
            match slot.take() {
                Some(v) => out.push(v),
                None => return Err(StorageError::WorkerPanicked),
            }
        }
        Ok(out)
    }
}

/// Runs one queued task and records its outcome in the batch. Returns
/// true when the task panicked (for the caller's panic counter).
fn run_task<T, F>(batch: &Batch<T>, i: usize, task: F) -> bool
where
    F: FnOnce() -> Result<T, StorageError>,
{
    let outcome = if batch.aborted.load(Ordering::Acquire) {
        None // batch already failed: skip the work, release the slot
    } else {
        Some(catch_unwind(AssertUnwindSafe(task)))
    };
    let mut panicked = false;
    let mut slots = batch.slots.lock();
    match outcome {
        Some(Ok(Ok(value))) => {
            if let Some(slot) = slots.results.get_mut(i) {
                *slot = Some(value);
            }
        }
        Some(Ok(Err(e))) => {
            if slots.first_error.is_none() {
                slots.first_error = Some(e);
            }
            batch.aborted.store(true, Ordering::Release);
        }
        Some(Err(_panic)) => {
            panicked = true;
            if slots.first_error.is_none() {
                slots.first_error = Some(StorageError::WorkerPanicked);
            }
            batch.aborted.store(true, Ordering::Release);
        }
        None => {}
    }
    slots.remaining -= 1;
    if slots.remaining == 0 {
        batch.done.notify_all();
    }
    panicked
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = shared
                    .available
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job();
    }
}

impl Drop for ScanExecutor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        self.threads.store(0, Ordering::Release);
        for worker in self.workers.lock().drain(..) {
            // A worker that panicked outside `catch_unwind` (impossible
            // for queued jobs, which are wrapped) is already gone;
            // nothing to clean up.
            #[allow(clippy::let_underscore_must_use)]
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitKey;
    use std::sync::atomic::AtomicUsize;

    fn pool() -> ScanExecutor {
        ScanExecutor::new(4)
    }

    #[test]
    fn results_preserve_task_order() {
        let p = pool();
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from task order.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Ok(i * 3)
                }
            })
            .collect();
        let out = p.execute_all(tasks).unwrap();
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let p = pool();
        let out: Vec<u8> = p
            .execute_all(Vec::<fn() -> Result<u8, StorageError>>::new())
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn first_error_aborts_the_batch() {
        let p = pool();
        let started = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..200)
            .map(|i| {
                let started = Arc::clone(&started);
                move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        Err(StorageError::NotFound {
                            key: UnitKey {
                                replica: 0,
                                partition: 3,
                            },
                        })
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        Ok(i)
                    }
                }
            })
            .collect();
        let err = p.execute_all(tasks).unwrap_err();
        assert!(matches!(err, StorageError::NotFound { key } if key.partition == 3));
        // Fail-fast: a prefix of the batch ran, the tail was skipped.
        assert!(started.load(Ordering::SeqCst) < 200);
    }

    #[test]
    fn panicking_task_becomes_worker_panicked_and_pool_survives() {
        let p = pool();
        let tasks: Vec<Box<dyn FnOnce() -> Result<u32, StorageError> + Send>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| panic!("boom")),
            Box::new(|| Ok(3)),
        ];
        let err = p.execute_all(tasks).unwrap_err();
        assert!(matches!(err, StorageError::WorkerPanicked));
        // The pool still works afterwards.
        let ok = p.execute_all(vec![|| Ok(42u32)]).unwrap();
        assert_eq!(ok, vec![42]);
    }

    #[test]
    fn concurrent_batches_from_many_threads() {
        let p = Arc::new(ScanExecutor::new(3));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for round in 0..10 {
                        let tasks: Vec<_> = (0..16)
                            .map(|i| move || Ok(t * 1000 + round * 100 + i))
                            .collect();
                        let out = p.execute_all(tasks).unwrap();
                        let want: Vec<usize> =
                            (0..16).map(|i| t * 1000 + round * 100 + i).collect();
                        assert_eq!(out, want);
                    }
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().is_ok());
        }
    }

    #[test]
    fn nested_execute_all_makes_progress() {
        // Tasks that themselves run batches on the same pool: the
        // caller-participation loop keeps this from deadlocking even
        // when every worker is tied up in an outer task. Two workers
        // and two outer tasks (each fanning out eight inner tasks)
        // force the queued path on both levels.
        let p = Arc::new(ScanExecutor::new(2));
        let outer: Vec<_> = (0..2)
            .map(|t| {
                let inner_pool = Arc::clone(&p);
                move || {
                    let inner: Vec<_> = (0..8).map(move |i| move || Ok(t * 100 + i * i)).collect();
                    let squares = inner_pool.execute_all(inner)?;
                    Ok(squares.into_iter().sum::<usize>())
                }
            })
            .collect();
        let out = p.execute_all(outer).unwrap();
        let want: Vec<usize> = (0..2)
            .map(|t| (0..8).map(|i| t * 100 + i * i).sum())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn single_worker_pool_runs_inline_with_same_semantics() {
        // The inline fast path must preserve ordering, fail-fast and
        // panic containment.
        let p = ScanExecutor::new(1);
        let out = p
            .execute_all((0..16).map(|i| move || Ok(i * 2)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        let tasks: Vec<Box<dyn FnOnce() -> Result<u32, StorageError> + Send>> =
            vec![Box::new(|| Ok(1)), Box::new(|| panic!("inline boom"))];
        assert!(matches!(
            p.execute_all(tasks).unwrap_err(),
            StorageError::WorkerPanicked
        ));
        assert_eq!(p.execute_all(vec![|| Ok(9u8)]).unwrap(), vec![9]);
    }

    #[test]
    fn zero_thread_request_still_executes() {
        let p = ScanExecutor::new(0);
        assert!(p.threads() >= 1);
        let out = p.execute_all(vec![|| Ok(7u8)]).unwrap();
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn default_pool_sizes_from_host() {
        let p = ScanExecutor::default();
        assert!(p.threads() >= 1);
    }

    #[test]
    fn shutdown_drains_and_joins_workers() {
        let p = Arc::new(ScanExecutor::new(3));
        // Keep the pool busy while shutdown is requested.
        let busy = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let tasks: Vec<_> = (0..32)
                    .map(|i| {
                        move || {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            Ok(i)
                        }
                    })
                    .collect();
                p.execute_all(tasks).unwrap()
            })
        };
        assert!(p.shutdown(Duration::from_secs(10)), "drain within budget");
        assert_eq!(p.threads(), 0);
        // The in-flight batch still completed (caller participation).
        assert_eq!(busy.join().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn pool_still_executes_inline_after_shutdown() {
        let p = ScanExecutor::new(4);
        assert!(p.shutdown(Duration::from_secs(5)));
        // Degraded mode: everything runs inline on this thread.
        let out = p
            .execute_all((0..8).map(|i| move || Ok(i)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        // Idempotent.
        assert!(p.shutdown(Duration::from_millis(10)));
    }
}
