//! Test-side latch for the serving layer: a [`QueryService`] wrapper
//! whose `query_batch_traced` rounds park until the test lets them
//! through, delegating everything else to the real service.
//!
//! An idle server dispatches at once, so a test that needs queries to
//! *wait* — to fill the admission queue, to straddle a shutdown, to
//! coalesce into one batch — holds the batch lanes here instead of
//! relying on a timer. Shared by the `blot-server` unit and e2e suites
//! and by `blot-router`'s e2e suite (`#[path]`-included there).

// Each including test binary uses its own subset.
#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_server::client::Client;

/// How long a test waits for something it arranged to happen before
/// calling it a hang.
pub const PATIENCE: Duration = Duration::from_secs(30);

/// Polls `done` until it holds; panics with `what` after [`PATIENCE`].
/// For conditions the test has already made inevitable (a query on its
/// way into the queue), where only *when* is open.
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[derive(Debug, Default)]
struct LatchState {
    /// Rounds still to be parked on arrival.
    to_hold: usize,
    /// Rounds parked right now.
    held: usize,
    open: bool,
    /// The ranges of every round that reached the service, in arrival
    /// order.
    rounds: Vec<Vec<Cuboid>>,
}

/// `inner`, with its first rounds parked at a latch.
#[derive(Debug)]
pub struct Latched<S: ?Sized> {
    state: Mutex<LatchState>,
    changed: Condvar,
    inner: Arc<S>,
}

impl<S: QueryService + ?Sized> Latched<S> {
    /// Wraps `inner` so that the first `hold` rounds to arrive park
    /// until [`open`](Self::open); later rounds pass straight through.
    /// `hold = 2` occupies both batch lanes of a server.
    pub fn holding(inner: Arc<S>, hold: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(LatchState {
                to_hold: hold,
                ..LatchState::default()
            }),
            changed: Condvar::new(),
            inner,
        })
    }

    /// Blocks until `n` rounds are parked at the latch.
    pub fn wait_held(&self, n: usize) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (_state, timeout) = self
            .changed
            .wait_timeout_while(state, PATIENCE, |s| s.held < n)
            .unwrap_or_else(PoisonError::into_inner);
        assert!(
            !timeout.timed_out(),
            "fewer than {n} rounds reached the latch"
        );
    }

    /// Releases every parked round and parks none from here on.
    pub fn open(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.open = true;
        drop(state);
        self.changed.notify_all();
    }

    /// Opens the latch from a side thread as soon as `begun` holds.
    /// `Server::shutdown` blocks its caller until the lanes exit, so a
    /// test that shuts down over parked rounds passes the shutdown
    /// flag's `is_triggered` here first.
    pub fn open_once(self: &Arc<Self>, begun: impl Fn() -> bool + Send + 'static) -> JoinHandle<()>
    where
        S: 'static,
    {
        let latched = Arc::clone(self);
        std::thread::spawn(move || {
            wait_until("the latch may open", begun);
            latched.open();
        })
    }

    /// The ranges of every round that reached the service so far, one
    /// entry per `query_batch_traced` call in arrival order.
    pub fn rounds(&self) -> Vec<Vec<Cuboid>> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .rounds
            .clone()
    }
}

impl<S: QueryService + ?Sized> QueryService for Latched<S> {
    fn query_batch_traced(&self, queries: &[TracedQuery]) -> Vec<Result<QueryResult, CoreError>> {
        {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.rounds.push(queries.iter().map(|q| q.range).collect());
            if state.to_hold > 0 && !state.open {
                state.to_hold -= 1;
                state.held += 1;
                self.changed.notify_all();
                let mut state = self
                    .changed
                    .wait_while(state, |s| !s.open)
                    .unwrap_or_else(PoisonError::into_inner);
                state.held -= 1;
            }
        }
        self.inner.query_batch_traced(queries)
    }

    fn recorder(&self) -> blot_obs::FlightRecorder {
        self.inner.recorder()
    }

    fn metrics_registry(&self) -> blot_obs::MetricsRegistry {
        self.inner.metrics_registry()
    }

    fn drift_report(&self, band: DriftBand) -> DriftReport {
        self.inner.drift_report(band)
    }

    fn stats_json(&self, band: Option<DriftBand>) -> Option<String> {
        self.inner.stats_json(band)
    }

    fn executor(&self) -> Arc<blot_storage::ScanExecutor> {
        self.inner.executor()
    }
}

/// Starts a client thread that asks `q` (with the default retries) and
/// returns how many records came back.
pub fn ask(addr: &str, q: Cuboid) -> JoinHandle<usize> {
    let addr = addr.to_owned();
    std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect");
        client.query(&q).expect("query").records.len()
    })
}

/// Parks one batch in each of a server's two lanes — one occupant at a
/// time, or a lane would take both in one batch.
pub fn occupy_lanes<S: QueryService + ?Sized>(
    service: &Latched<S>,
    addr: &str,
    q: Cuboid,
) -> Vec<JoinHandle<usize>> {
    (1..=2)
        .map(|lanes_held| {
            let occupant = ask(addr, q);
            service.wait_held(lanes_held);
            occupant
        })
        .collect()
}

/// A stub store for tests about admission rather than answers: every
/// query gets one record placed at its range's lower corner, so a
/// reply identifies the query it answers.
#[derive(Debug)]
pub struct Echo {
    registry: blot_obs::MetricsRegistry,
    pool: Arc<blot_storage::ScanExecutor>,
}

impl Echo {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            registry: blot_obs::MetricsRegistry::new(),
            pool: Arc::new(blot_storage::ScanExecutor::new(1)),
        })
    }

    /// The `k`-th of a family of distinct ranges.
    pub fn range(k: u32) -> Cuboid {
        let x = f64::from(k);
        Cuboid::new(Point::new(x, x, 0.0), Point::new(x + 1.0, x + 1.0, 1.0))
    }
}

impl QueryService for Echo {
    fn query_batch_traced(&self, queries: &[TracedQuery]) -> Vec<Result<QueryResult, CoreError>> {
        queries
            .iter()
            .map(|q| {
                let corner = q.range.min();
                Ok(QueryResult {
                    records: std::iter::once(Record::new(0, 0, corner.x, corner.y)).collect(),
                    replica: 0,
                    sim_ms: 1.0,
                    makespan_ms: 1.0,
                    partitions_scanned: 1,
                    units_skipped: 0,
                    bytes_skipped: 0,
                    failed_over: Vec::new(),
                })
            })
            .collect()
    }

    fn metrics_registry(&self) -> blot_obs::MetricsRegistry {
        self.registry.clone()
    }

    fn drift_report(&self, band: DriftBand) -> DriftReport {
        DriftReport::from_samples(band, [])
    }

    fn executor(&self) -> Arc<blot_storage::ScanExecutor> {
        Arc::clone(&self.pool)
    }
}
