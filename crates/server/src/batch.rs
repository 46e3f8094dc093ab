//! Admission control and query micro-batching.
//!
//! Every `RangeQuery` a connection handler decodes goes through the
//! bounded [`AdmissionQueue`]. A full queue sheds the query immediately
//! with [`SubmitError::Overloaded`] (carrying a retry-after hint sized
//! from the most recent batch's wall time) — the queue never grows
//! without bound and the connection never blocks inside `submit`.
//!
//! [`LANES`] batch-lane threads share the queue. A lane drains it in
//! FIFO order, groups up to `max_batch` queries, and executes them in
//! **one** [`QueryService::query_batch_traced`] round, so a burst of
//! small queries pays the scan-pool submission overhead once instead
//! of per query. When a lane may drain is what makes this an admission
//! *policy*:
//!
//! * no batch is executing and callers have not been overlapping → at
//!   once (an idle server adds no wait, and neither does a lone caller
//!   however fast it asks);
//! * another lane's batch is executing → when the queue holds
//!   `max_batch`, or that batch finishes, or it has been running for
//!   `linger` — whichever comes first;
//! * callers overlap → when the queue holds `max_batch`, or the oldest
//!   waiting query has waited `linger`.
//!
//! Callers overlap when a batch ends with queries already waiting
//! behind it, or held more than one. Such a batch opens a coalescing
//! window of `linger` (the next such batch extends it), and a query
//! admitted inside the window lingers the way every query did under a
//! single sleeping batcher. A query already waiting when the window
//! opens is outside it: the lane that finished takes it at once.
//!
//! So a server nobody else is using never makes a caller wait, a round
//! that outlives `linger` stops being everybody's head of line because
//! the second lane opens, and callers that do collide are served in
//! rounds about `linger` apart, each holding all of them. Without the
//! window, two callers of sub-millisecond queries run one round a
//! query, and how many rounds fit in a second then depends on how the
//! threads interleave and on every slow query among them: measured
//! closed-loop throughput on two cores ranged 2.9 k–9.3 k queries/s
//! from one run to the next.
//!
//! Results travel back to the waiting connection handler over a
//! `sync_channel(1)` per query.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_obs::{names, ServerMetrics, SpanContext, TraceSpan};
use blot_storage::sync::Mutex;
use blot_storage::StorageError;

/// Why a query was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; retry after the hint.
    Overloaded {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u32,
    },
    /// The server is draining and admits no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { retry_after_ms } => {
                write!(f, "admission queue full; retry after {retry_after_ms} ms")
            }
            Self::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

const _: () = {
    const fn require_error_traits<E: std::error::Error + Send + Sync>() {}
    require_error_traits::<SubmitError>()
};

/// What a batch lane hands back for one query: the query's own outcome
/// plus the server-side stage breakdown the wire reply reports.
#[derive(Debug)]
pub struct BatchedOutcome {
    /// The query's result as produced by the store.
    pub result: Result<QueryResult, CoreError>,
    /// Wall time from `submit` to a lane draining the query.
    pub admission_ms: f64,
    /// Wall time the query spent inside its batch round (drain → fill).
    pub batch_ms: f64,
    /// Wall time of the store's `query_batch_traced` round. Shared by
    /// every query in the same batch.
    pub store_ms: f64,
}

struct PendingQuery {
    range: Cuboid,
    /// The connection's `server.request` span context, if the query is
    /// traced; the lane parents its `server.batch` span under it.
    ctx: Option<SpanContext>,
    /// The `server.admission` span opened at submit time; the lane
    /// finishes it when it drains the query, so the span's duration is
    /// the queue wait.
    admission: Option<TraceSpan>,
    enqueued: Instant,
    /// Where the outcome goes: one slot, waited on by the connection
    /// handler that submitted the query.
    reply: SyncSender<BatchedOutcome>,
}

impl std::fmt::Debug for PendingQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingQuery")
            .field("range", &self.range)
            .finish_non_exhaustive()
    }
}

/// Batch lanes sharing one [`AdmissionQueue`]. Two, and a constant
/// rather than a setting: one lane keeps the store busy while the
/// queue collects the next batch, and the second exists only so that a
/// batch outliving `linger` does not hold up everyone behind it. A
/// third would split the same arrivals into smaller rounds and
/// oversubscribe the scan pool, which already spreads one round over
/// every core.
pub const LANES: usize = 2;

/// What the queue's mutex guards.
#[derive(Debug, Default)]
struct Admission {
    pending: VecDeque<PendingQuery>,
    /// Drain time of every batch now executing (at most one a lane).
    executing: Vec<Instant>,
    /// The coalescing window `[opened, renewed + linger)`: a query
    /// admitted inside it lingers. Opened, or renewed while still open,
    /// by a batch that shows callers overlap.
    coalescing: Option<(Instant, Instant)>,
    closed: bool,
}

/// The bounded queue between connection handlers and the batch lanes.
#[derive(Debug)]
pub struct AdmissionQueue {
    state: Mutex<Admission>,
    /// Only lanes wait on this: for an arrival or `close`, and (with a
    /// timeout) through a hold — see [`next_batch`](Self::next_batch).
    wake: Condvar,
    capacity: usize,
    max_batch: usize,
    linger: Duration,
    /// Wall time of the most recent batch, feeding the retry-after
    /// hint: a client should wait roughly two batch rounds.
    last_batch_ms: AtomicU32,
    metrics: ServerMetrics,
}

/// Floor for the retry-after hint, so an idle server still tells
/// clients to back off a little instead of hammering.
const MIN_RETRY_HINT_MS: u32 = 25;

impl AdmissionQueue {
    /// Creates a queue admitting at most `capacity` waiting queries,
    /// batching up to `max_batch` of them per round. `linger` is how
    /// long an executing batch may hold the queue before a second lane
    /// drains beside it.
    #[must_use]
    pub fn new(
        capacity: usize,
        max_batch: usize,
        linger: Duration,
        metrics: ServerMetrics,
    ) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(Admission::default()),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            max_batch: max_batch.max(1),
            linger,
            last_batch_ms: AtomicU32::new(0),
            metrics,
        })
    }

    /// Admits one query, returning the receiver its outcome will
    /// arrive on. A lane sends exactly once; a receiver that is dropped
    /// first (the handler gave up waiting) discards the outcome.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] once [`close`](Self::close) ran.
    /// Neither blocks.
    pub fn submit(
        &self,
        range: Cuboid,
        ctx: Option<SpanContext>,
        admission: Option<TraceSpan>,
    ) -> Result<Receiver<BatchedOutcome>, SubmitError> {
        let (reply, outcome) = sync_channel(1);
        {
            let mut state = self.state.lock();
            if state.closed {
                return Err(SubmitError::ShuttingDown);
            }
            if state.pending.len() >= self.capacity {
                drop(state);
                self.metrics.shed.inc();
                return Err(SubmitError::Overloaded {
                    retry_after_ms: self.retry_hint_ms(),
                });
            }
            state.pending.push_back(PendingQuery {
                range,
                ctx,
                admission,
                enqueued: Instant::now(),
                reply,
            });
            self.metrics.queue_depth.add(1);
        }
        // Any lane can serve any arrival, and a lane that is executing
        // looks at the queue again when it finishes: one wake-up is
        // enough.
        self.wake.notify_one();
        Ok(outcome)
    }

    /// Current retry-after suggestion: about two batch rounds.
    fn retry_hint_ms(&self) -> u32 {
        self.last_batch_ms
            .load(Ordering::Relaxed)
            .saturating_mul(2)
            .max(MIN_RETRY_HINT_MS)
    }

    /// Stops admitting new queries. Already-queued queries still run;
    /// the lanes exit once the queue is empty.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }

    /// Queries currently waiting (test/diagnostic helper).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Retires the batch a lane drained at `drained`, the moment its
    /// store round returns and before its replies go out — so a query
    /// counts as having arrived during the batch only if its caller
    /// was not waiting for this batch's answer.
    fn finish(&self, drained: Instant, size: usize) {
        let mut state = self.state.lock();
        if let Some(at) = state
            .executing
            .iter()
            .position(|started| *started == drained)
        {
            state.executing.swap_remove(at);
        }
        // Callers overlap: the batch held more than one query, or some
        // arrived while it ran.
        if size > 1 || !state.pending.is_empty() {
            let now = Instant::now();
            let opened = state
                .coalescing
                .filter(|(_, renewed)| now.saturating_duration_since(*renewed) < self.linger)
                .map_or(now, |(opened, _)| opened);
            state.coalescing = Some((opened, now));
        }
    }

    /// Blocks until the calling lane may drain — see the module docs
    /// for when — and takes up to `max_batch` queries in FIFO order.
    /// `None` means closed *and* drained: the lane should exit.
    ///
    /// "The executing batch finishes" needs no signal: the lane that
    /// finished calls this next, and drains what is waiting itself.
    fn next_batch(&self) -> Option<(Vec<PendingQuery>, Instant)> {
        let mut state = self.state.lock();
        // `storage::sync::Mutex` hands out a std guard, so the condvar
        // composes; recover from poisoning like the lock itself does.
        loop {
            if state.pending.is_empty() {
                if state.closed {
                    return None;
                }
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Hold until the oldest executing batch is `linger` old;
            // with none executing, until the oldest waiting query is,
            // if it arrived inside the coalescing window. A full batch
            // waiting, or shutdown, ends either hold.
            let held_from = match state.executing.iter().min() {
                Some(started) => Some(*started),
                None => state.pending.front().map(|q| q.enqueued).filter(|at| {
                    state.coalescing.is_some_and(|(opened, renewed)| {
                        *at >= opened && at.saturating_duration_since(renewed) < self.linger
                    })
                }),
            };
            let hold = held_from
                .map(|from| self.linger.saturating_sub(from.elapsed()))
                .filter(|left| {
                    !left.is_zero() && state.pending.len() < self.max_batch && !state.closed
                });
            let Some(left) = hold else { break };
            state = self
                .wake
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let take = state.pending.len().min(self.max_batch);
        let batch: Vec<PendingQuery> = state.pending.drain(..take).collect();
        let drained = Instant::now();
        state.executing.push(drained);
        drop(state);
        self.metrics
            .queue_depth
            .add(-(i64::try_from(batch.len()).unwrap_or(i64::MAX)));
        Some((batch, drained))
    }
}

/// One batch lane: drains the queue until it is closed *and* empty,
/// executing each batch in one [`QueryService::query_batch_traced`]
/// round. `Server::start` runs [`LANES`] of these, each on its own
/// thread.
pub fn run_lane<S: QueryService + ?Sized>(service: &S, queue: &AdmissionQueue) {
    let recorder = service.recorder();
    while let Some((mut batch, drained)) = queue.next_batch() {
        #[allow(clippy::cast_precision_loss)]
        {
            queue.metrics.batches.inc();
            queue.metrics.batch_size.record(batch.len() as f64);
        }
        let batch_size = batch.len() as u64;
        // Close each query's admission span: its duration is exactly
        // the time the query sat in the queue before this drain.
        let mut batch_spans = Vec::with_capacity(batch.len());
        for p in &mut batch {
            let waited_us =
                u64::try_from(drained.duration_since(p.enqueued).as_micros()).unwrap_or(u64::MAX);
            if let Some(mut span) = p.admission.take() {
                span.note(names::QUEUE_US, waited_us);
                span.finish();
            }
            batch_spans.push(p.ctx.map(|ctx| {
                let mut span = recorder.span_under(ctx, names::SERVER_BATCH);
                span.note(names::BATCH_SIZE, batch_size);
                span
            }));
        }
        let queries: Vec<TracedQuery> = batch
            .iter()
            .map(|p| TracedQuery {
                range: p.range,
                ctx: p.ctx,
            })
            .collect();
        let round = Instant::now();
        let mut results = service.query_batch_traced(&queries).into_iter();
        let store_ms = round.elapsed().as_secs_f64() * 1_000.0;
        queue.finish(drained, batch.len());
        for (p, span) in batch.into_iter().zip(batch_spans) {
            // `query_batch_traced` returns exactly one entry per
            // query; a short answer would be an internal bug, surfaced
            // to the client as a storage-class error rather than a
            // hang.
            let result = results
                .next()
                .unwrap_or(Err(CoreError::Storage(StorageError::WorkerPanicked)));
            if let Some(span) = span {
                span.finish();
            }
            let now = Instant::now();
            // The one send into a one-slot channel never blocks; it
            // fails only when the handler stopped waiting (its request
            // timed out), and then no one is left to tell.
            #[allow(clippy::let_underscore_must_use)]
            let _ = p.reply.try_send(BatchedOutcome {
                result,
                admission_ms: drained.duration_since(p.enqueued).as_secs_f64() * 1_000.0,
                batch_ms: now.duration_since(drained).as_secs_f64() * 1_000.0,
                store_ms,
            });
        }
        // Slow queries detected during this round surface on stderr as
        // structured single-line records.
        for entry in service.drain_slow_queries() {
            eprintln!("{}", entry.to_line());
        }
        let elapsed = drained.elapsed().as_millis();
        queue.last_batch_ms.store(
            u32::try_from(elapsed).unwrap_or(u32::MAX),
            Ordering::Relaxed,
        );
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use blot_obs::MetricsRegistry;

    fn metrics() -> ServerMetrics {
        ServerMetrics::register(&MetricsRegistry::new())
    }

    #[test]
    fn queue_sheds_above_capacity_without_blocking() {
        let q = AdmissionQueue::new(2, 8, Duration::ZERO, metrics());
        let range = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 1.0));
        assert!(q.submit(range, None, None).is_ok());
        assert!(q.submit(range, None, None).is_ok());
        match q.submit(range, None, None) {
            Err(SubmitError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms >= MIN_RETRY_HINT_MS);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn closed_queue_rejects_with_shutting_down() {
        let q = AdmissionQueue::new(4, 8, Duration::ZERO, metrics());
        q.close();
        let range = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 1.0));
        assert!(matches!(
            q.submit(range, None, None),
            Err(SubmitError::ShuttingDown)
        ));
        assert!(q.next_batch().is_none());
    }
}
