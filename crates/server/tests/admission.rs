//! The admission policy, one rule a test: an idle server and a lone
//! caller are dispatched at once, arrivals behind a young batch run
//! when it finishes, callers that overlapped coalesce, a batch older
//! than the linger does not hold up the other lane, `close` answers
//! what is queued, a full queue sheds. Every wait here is on a latch
//! the test holds (`support::Latched`), never on a timer.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_precision_loss
)]

mod support;

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_obs::{MetricsRegistry, ServerMetrics};
use blot_server::batch::{run_lane, AdmissionQueue, BatchedOutcome, SubmitError, LANES};
use blot_server::client::Client;
use blot_server::server::{Server, ServerConfig};

use support::{wait_until, Echo, Latched, PATIENCE};

/// A linger no test outlives: a lane holding for it moves only when
/// the policy says so.
const NEVER: Duration = Duration::from_secs(3600);

/// An [`AdmissionQueue`] with its [`LANES`] lanes running over
/// `service`, as `Server::start` wires them.
struct Lanes {
    queue: Arc<AdmissionQueue>,
    registry: MetricsRegistry,
    threads: Vec<JoinHandle<()>>,
}

impl Lanes {
    fn start<S: QueryService + ?Sized + 'static>(
        service: &Arc<S>,
        capacity: usize,
        max_batch: usize,
        linger: Duration,
    ) -> Self {
        let registry = MetricsRegistry::new();
        let queue = AdmissionQueue::new(
            capacity,
            max_batch,
            linger,
            ServerMetrics::register(&registry),
        );
        let threads = (0..LANES)
            .map(|_| {
                let (service, queue) = (Arc::clone(service), Arc::clone(&queue));
                std::thread::spawn(move || run_lane(service.as_ref(), &queue))
            })
            .collect();
        Self {
            queue,
            registry,
            threads,
        }
    }

    /// Closes the queue and joins every lane.
    fn close_and_join(self) {
        self.queue.close();
        for t in self.threads {
            t.join().expect("a lane panicked");
        }
    }
}

/// The answer to `Echo::range(k)` carries `k` in its one record.
fn assert_answers(outcome: Option<BatchedOutcome>, k: u32) {
    let result = outcome.expect("query was never answered").result.unwrap();
    assert_eq!(result.records.len(), 1);
    assert_eq!(result.records.get(0).x, f64::from(k), "reply for query {k}");
}

#[test]
fn a_lone_query_on_an_idle_server_does_not_wait_out_the_linger() {
    let lanes = Lanes::start(&Echo::new(), 8, 8, Duration::from_millis(500));
    let started = Instant::now();
    let slot = lanes.queue.submit(Echo::range(7), None, None).unwrap();
    let outcome = slot.recv_timeout(PATIENCE).ok();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "an idle server must dispatch at once, not after the 500 ms linger (took {elapsed:?})"
    );
    let outcome = outcome.unwrap();
    assert!(outcome.admission_ms < 100.0);
    assert_answers(Some(outcome), 7);
    lanes.close_and_join();
}

#[test]
fn a_lone_caller_never_lingers_however_fast_it_asks() {
    let lanes = Lanes::start(&Echo::new(), 8, 8, NEVER);
    // Back to back, each the moment the last was answered: one caller
    // cannot overlap itself, so nothing ever opens a coalescing window
    // (one that did would hold the next query for an hour).
    for k in 0..20 {
        let slot = lanes.queue.submit(Echo::range(k), None, None).unwrap();
        assert_answers(slot.recv_timeout(PATIENCE).ok(), k);
    }
    lanes.close_and_join();
}

#[test]
fn callers_that_overlapped_coalesce_until_a_full_batch_waits() {
    let service = Latched::holding(Echo::new(), 1);
    let lanes = Lanes::start(&service, 16, 3, NEVER);
    let submit = |k: u32| lanes.queue.submit(Echo::range(k), None, None).unwrap();
    // A batch that ends with a query waiting behind it: callers
    // overlap. What was waiting runs at once…
    let first = submit(0);
    service.wait_held(1);
    let behind = submit(1);
    service.open();
    assert_answers(first.recv_timeout(PATIENCE).ok(), 0);
    assert_answers(behind.recv_timeout(PATIENCE).ok(), 1);
    // …and what arrives next lingers, on a server with nothing to do…
    let lingering = [submit(2), submit(3)];
    assert!(lingering[0]
        .recv_timeout(Duration::from_millis(50))
        .is_err());
    assert_eq!(lanes.queue.depth(), 2);
    // …until the queue holds `max_batch`.
    let filler = submit(4);
    for (k, slot) in (2..).zip(lingering.iter().chain([&filler])) {
        assert_answers(slot.recv_timeout(PATIENCE).ok(), k);
    }
    let rounds: Vec<Vec<Cuboid>> = [vec![0], vec![1], vec![2, 3, 4]]
        .into_iter()
        .map(|round| round.into_iter().map(Echo::range).collect())
        .collect();
    assert_eq!(service.rounds(), rounds);
    lanes.close_and_join();
}

#[test]
fn arrivals_behind_a_young_batch_run_as_one_fifo_batch() {
    const K: u32 = 5;
    let service = Latched::holding(Echo::new(), 1);
    let lanes = Lanes::start(&service, 16, 16, NEVER);
    // One batch in flight, parked at the latch, younger than the linger.
    let first = lanes.queue.submit(Echo::range(0), None, None).unwrap();
    service.wait_held(1);
    // K arrivals meanwhile: the free lane holds for them.
    let slots: Vec<_> = (1..=K)
        .map(|k| lanes.queue.submit(Echo::range(k), None, None).unwrap())
        .collect();
    assert_eq!(lanes.queue.depth(), K as usize, "the free lane must hold");
    service.open();
    assert_answers(first.recv_timeout(PATIENCE).ok(), 0);
    for (k, slot) in (1..=K).zip(&slots) {
        assert_answers(slot.recv_timeout(PATIENCE).ok(), k);
    }
    // Two rounds reached the store: the occupant, then all K together
    // in submission order.
    let expected: Vec<Cuboid> = (1..=K).map(Echo::range).collect();
    assert_eq!(service.rounds(), vec![vec![Echo::range(0)], expected]);
    if blot_obs::enabled() {
        let snapshot = lanes.registry.snapshot();
        let sizes = snapshot.histogram("server.batch_size").unwrap();
        assert_eq!(sizes.count(), 2);
        assert_eq!(sizes.sum, f64::from(1 + K));
        assert_eq!(snapshot.gauge("server.queue_depth"), Some(0));
    }
    lanes.close_and_join();
}

#[test]
fn a_batch_older_than_the_linger_does_not_hold_up_later_queries() {
    let service = Latched::holding(Echo::new(), 1);
    let lanes = Lanes::start(&service, 16, 16, Duration::from_millis(1));
    let stuck = lanes.queue.submit(Echo::range(0), None, None).unwrap();
    service.wait_held(1);
    // Ten queries one after another, each answered by the second lane
    // while the first stays parked.
    for k in 1..=10 {
        let slot = lanes.queue.submit(Echo::range(k), None, None).unwrap();
        assert_answers(slot.recv_timeout(PATIENCE).ok(), k);
    }
    assert!(
        stuck.try_recv().is_err(),
        "the parked batch is still parked"
    );
    service.open();
    assert_answers(stuck.recv_timeout(PATIENCE).ok(), 0);
    lanes.close_and_join();
}

#[test]
fn close_answers_everything_queued_behind_a_held_batch_and_both_lanes_exit() {
    let service = Latched::holding(Echo::new(), 1);
    let config = ServerConfig {
        batch_linger: NEVER,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let ask = |k: u32| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            client.query(&Echo::range(k)).unwrap().records.get(0).x
        })
    };
    // One query parked in its batch, four queued behind it.
    let mut asked = vec![ask(0)];
    service.wait_held(1);
    asked.extend((1..=4).map(ask));
    wait_until("four queries are queued", || server.queued() == 4);

    let flag = server.shutdown_flag();
    let opener = service.open_once(move || flag.is_triggered());
    let report = server.shutdown(Duration::from_secs(30));
    opener.join().unwrap();
    for (k, handle) in (0u32..).zip(asked) {
        assert_eq!(handle.join().unwrap(), f64::from(k), "query {k} answered");
    }
    assert!(report.threads_joined, "both lanes must exit and be joined");
    assert!(report.pool_drained);
}

#[test]
fn both_lanes_held_and_a_full_queue_shed_the_next_query_without_blocking() {
    const DEPTH: u32 = 3;
    let service = Latched::holding(Echo::new(), LANES);
    let lanes = Lanes::start(&service, DEPTH as usize, 1, Duration::ZERO);
    // Park a batch in each lane (`max_batch` 1: one query apiece)…
    let mut slots = Vec::new();
    for k in 0..2 {
        slots.push(lanes.queue.submit(Echo::range(k), None, None).unwrap());
        service.wait_held(k as usize + 1);
    }
    // …fill the queue behind them…
    for k in 2..2 + DEPTH {
        slots.push(lanes.queue.submit(Echo::range(k), None, None).unwrap());
    }
    assert_eq!(lanes.queue.depth(), DEPTH as usize);
    // …and the next one is turned away, on the caller's own thread.
    match lanes.queue.submit(Echo::range(99), None, None) {
        Err(SubmitError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(
        lanes.queue.depth(),
        DEPTH as usize,
        "a shed query leaves no trace"
    );
    service.open();
    for (k, slot) in (0u32..).zip(&slots) {
        assert_answers(slot.recv_timeout(PATIENCE).ok(), k);
    }
    lanes.close_and_join();
}
