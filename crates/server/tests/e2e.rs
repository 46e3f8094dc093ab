//! Loopback end-to-end tests: a real TCP server on port 0, real
//! clients, asserting remote results are bit-identical to in-process
//! ones, overload is shed with `Overloaded` (never a hang or a silent
//! drop), and graceful shutdown drains in-flight work.
//!
//! An idle server dispatches at once, so the tests that need queries
//! to sit in the queue hold the batch lanes at a latch
//! (`support::Latched`) instead of waiting out a timer.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_precision_loss
)]

mod support;

/// The `blot` CLI's stats renderer, the one way a stats document
/// becomes text.
#[path = "../../cli/src/stats.rs"]
mod cli_stats;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use blot_core::prelude::*;
use blot_json::Json;
use blot_obs::{names, SpanContext};
use blot_server::client::{Client, ClientConfig, ClientError};
use blot_server::server::{Server, ServerConfig};
use blot_server::wire::{self, ErrorCode, Response};
use blot_storage::MemBackend;
use blot_tracegen::FleetConfig;

use support::{ask, occupy_lanes, wait_until, Latched, PATIENCE};

type TestStore = BlotStore<MemBackend>;

fn build_store() -> (TestStore, RecordBatch) {
    let mut config = FleetConfig::small();
    config.num_taxis = 40;
    config.records_per_taxi = 120;
    let data = config.generate();
    let universe = config.universe();
    let env = EnvProfile::local_cluster();
    let model = CostModel::calibrate(&env, &data, 23);
    let mut store = BlotStore::new(MemBackend::new(), env, universe, model);
    store
        .build_replica(
            &data,
            ReplicaConfig::new(
                SchemeSpec::new(16, 4),
                EncodingScheme::new(Layout::Row, Compression::Lzf),
            ),
        )
        .unwrap();
    store
        .build_replica(
            &data,
            ReplicaConfig::new(
                SchemeSpec::new(4, 2),
                EncodingScheme::new(Layout::Column, Compression::Deflate),
            ),
        )
        .unwrap();
    (store, data)
}

/// A client that never retries: each query is one attempt.
fn single_shot() -> ClientConfig {
    ClientConfig {
        max_retries: 0,
        ..ClientConfig::default()
    }
}

fn probe_queries(universe: &Cuboid, n: usize) -> Vec<Cuboid> {
    (0..n)
        .map(|k| {
            let f = 1.5 + k as f64;
            Cuboid::from_centroid(
                universe.centroid(),
                QuerySize::new(
                    universe.extent(0) / f,
                    universe.extent(1) / f,
                    universe.extent(2) / f,
                ),
            )
        })
        .collect()
}

#[test]
fn concurrent_remote_queries_are_bit_identical_to_in_process() {
    let (store, _data) = build_store();
    let store = Arc::new(store);
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let universe = store.universe();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.ping().unwrap();
                for q in probe_queries(&universe, 8 + c) {
                    let remote = client.query(&q).unwrap();
                    let local = store.query(&q).unwrap();
                    assert_eq!(
                        remote.records, local.records,
                        "remote records must be bit-identical"
                    );
                    assert_eq!(remote.replica, local.replica);
                    assert_eq!(remote.partitions_scanned as usize, local.partitions_scanned);
                    assert!(remote.failed_over.is_empty());
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.threads_joined, "service threads must join");
    assert!(report.pool_drained, "scan pool must drain");
    assert!(report.snapshot.counter("server.requests").unwrap_or(0) > 0);
}

#[test]
fn burst_over_queue_depth_is_shed_with_overloaded() {
    let (store, _) = build_store();
    let q = probe_queries(&store.universe(), 1)[0];
    let service = Latched::holding(Arc::new(store), 2);
    let config = ServerConfig {
        queue_depth: 2,
        // Ten connections at once (two occupants, a burst of eight),
        // each held by its own handler.
        handlers: 10,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    // Park a batch in each lane, so whatever the burst gets admitted
    // stays queued: the overload window is deterministic.
    let occupants = occupy_lanes(&service, &addr, q);

    let (tx, rx) = std::sync::mpsc::channel();
    let burst: Vec<_> = (0..8)
        .map(|_| {
            let (addr, tx) = (addr.clone(), tx.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect_with(&addr, single_shot()).unwrap();
                // Single shot, no retry: each attempt must get *some*
                // structured answer within the timeout.
                let outcome = match client.query(&q) {
                    Ok(result) => Ok(result),
                    Err(ClientError::Exhausted { last, .. }) => Err(last),
                    Err(e) => panic!("expected an answer or a shed reply, got {e}"),
                };
                tx.send(outcome).unwrap();
            })
        })
        .collect();
    // Two fit in the queue; the other six are answered at once, while
    // both lanes are still parked.
    let mut outcomes: Vec<_> = (0..6).map(|_| rx.recv_timeout(PATIENCE).unwrap()).collect();
    assert_eq!(server.queued(), 2);
    service.open();
    outcomes.extend((0..2).map(|_| rx.recv_timeout(PATIENCE).unwrap()));
    for h in burst {
        h.join().unwrap();
    }
    for h in occupants {
        assert!(h.join().unwrap() > 0);
    }

    let succeeded = outcomes.iter().filter(|o| o.is_ok()).count();
    let shed: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    assert_eq!(succeeded + shed.len(), 8, "every request must be answered");
    assert_eq!(
        shed.len(),
        6,
        "a burst of 8 against queue depth 2 with both lanes busy sheds exactly 6"
    );
    for e in &shed {
        assert_eq!(e.code, ErrorCode::Overloaded);
        assert!(e.retry_after_ms > 0, "shed replies must carry a retry hint");
    }

    let report = server.shutdown(Duration::from_secs(10));
    if blot_obs::enabled() {
        assert_eq!(report.snapshot.counter("server.shed"), Some(6));
    }
}

#[test]
fn client_retry_with_backoff_survives_overload() {
    let (store, _) = build_store();
    let q = probe_queries(&store.universe(), 1)[0];
    let service = Latched::holding(Arc::new(store), 2);
    let config = ServerConfig {
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    // Occupy both lanes and the queue's one slot.
    let mut occupants = occupy_lanes(&service, &addr, q);
    occupants.push(ask(&addr, q));
    wait_until("the third occupant is queued", || server.queued() == 1);

    // The retrying client is shed at least once, then admitted once
    // the lanes move again.
    let retrying = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with(
                &addr,
                ClientConfig {
                    max_retries: 20,
                    ..ClientConfig::default()
                },
            )
            .unwrap();
            let result = client.query(&q).unwrap();
            (result.records.len(), client.retries())
        })
    };
    if blot_obs::enabled() {
        wait_until("the retrying client has been shed", || {
            server.registry().snapshot().counter("server.shed") > Some(0)
        });
    } else {
        // No counter to watch: give the first attempt time to land.
        std::thread::sleep(Duration::from_millis(200));
    }
    service.open();
    let (records, retries) = retrying.join().unwrap();
    assert!(records > 0);
    assert!(
        retries > 0,
        "the second client must have been shed and retried"
    );
    for h in occupants {
        assert!(h.join().unwrap() > 0);
    }
    let _ = server.shutdown(Duration::from_secs(10));
}

#[test]
fn a_connection_past_the_handler_pool_is_refused_then_admitted_on_retry() {
    let (store, _) = build_store();
    let store = Arc::new(store);
    let q = probe_queries(&store.universe(), 1)[0];
    let config = ServerConfig {
        handlers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    // Two open connections hold both handlers for as long as they last.
    let mut held: Vec<Client> = (0..2)
        .map(|_| {
            let mut client = Client::connect(&addr).unwrap();
            client.ping().unwrap();
            client
        })
        .collect();

    // A third gets a structured shed reply at once, not a wait for a
    // handler that will never come.
    let mut third = Client::connect_with(&addr, single_shot()).unwrap();
    match third.query(&q) {
        Err(ClientError::Exhausted { last, .. }) => {
            assert_eq!(last.code, ErrorCode::Overloaded);
            assert!(last.retry_after_ms > 0, "a refusal carries a retry hint");
        }
        other => panic!("expected an Overloaded refusal, got {other:?}"),
    }

    // A retrying client is refused too, and gets in once a handler
    // frees up.
    let retrying = std::thread::spawn(move || {
        let config = ClientConfig {
            max_retries: 20,
            ..ClientConfig::default()
        };
        let mut client = Client::new(&addr, config);
        (client.query(&q).unwrap().records, client.retries())
    });
    if blot_obs::enabled() {
        wait_until("the retrying client has been refused", || {
            server
                .registry()
                .snapshot()
                .counter("server.connections_rejected")
                >= Some(2)
        });
    } else {
        // No counter to watch: give the first attempt time to land.
        std::thread::sleep(Duration::from_millis(200));
    }
    drop(held.pop());
    let (records, retries) = retrying.join().unwrap();
    assert_eq!(records, store.query(&q).unwrap().records);
    assert!(retries > 0, "the client must have been refused and retried");
    held.clear();
    let _ = server.shutdown(Duration::from_secs(10));
}

/// A stand-in for a server whose first connection dies mid-request: it
/// reads the start of the first request and drops the socket, then
/// forwards every later connection to `upstream` byte for byte.
fn reset_once_then_forward(upstream: String) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Detached on purpose: the loop lives for the test process.
    std::thread::spawn(move || {
        let mut incoming = listener.incoming();
        if let Some(Ok(mut first)) = incoming.next() {
            let mut start = [0u8; 8];
            let _ = first.read(&mut start);
            drop(first); // connection reset mid-request
        }
        for client in incoming {
            let Ok(client) = client else { continue };
            let server = TcpStream::connect(&upstream).unwrap();
            let legs = [
                (client.try_clone().unwrap(), server.try_clone().unwrap()),
                (server, client),
            ];
            for (mut from, mut to) in legs {
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from, &mut to);
                    let _ = to.shutdown(std::net::Shutdown::Write);
                });
            }
        }
    });
    addr
}

#[test]
fn a_query_whose_connection_is_reset_reconnects_and_answers_exactly() {
    let (store, _) = build_store();
    let store = Arc::new(store);
    let q = probe_queries(&store.universe(), 1)[0];
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let stub = reset_once_then_forward(server.local_addr().to_string());

    let mut client = Client::connect(&stub).unwrap();
    let remote = client.query(&q).unwrap();
    assert_eq!(remote.records, store.query(&q).unwrap().records);
    assert_eq!(client.retries(), 1, "one reconnect after the reset");
    drop(client);
    let _ = server.shutdown(Duration::from_secs(10));
}

#[test]
fn graceful_shutdown_answers_in_flight_queries() {
    let (store, _) = build_store();
    let queries = probe_queries(&store.universe(), 4);
    let service = Latched::holding(Arc::new(store), 2);
    let config = ServerConfig {
        // One query a batch, so two of the four below stay queued.
        max_batch: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    // Two queries are executing and two sit in the admission queue when
    // shutdown begins; all four must still be answered.
    let in_flight: Vec<_> = queries.into_iter().map(|q| ask(&addr, q)).collect();
    service.wait_held(2);
    wait_until("two queries are queued", || server.queued() == 2);
    let flag = server.shutdown_flag();
    let opener = service.open_once(move || flag.is_triggered());
    let report = server.shutdown(Duration::from_secs(10));
    opener.join().unwrap();
    for h in in_flight {
        let n = h.join().unwrap();
        assert!(n > 0, "in-flight queries must be answered during drain");
    }
    assert!(report.threads_joined);
    assert!(report.pool_drained);

    // After shutdown the port no longer answers.
    assert!(
        Client::connect(&addr).is_err() || {
            let mut c = Client::connect(&addr).unwrap();
            c.ping().is_err()
        }
    );
}

#[test]
fn a_request_timeout_expiry_is_answered_with_a_structured_error() {
    let (store, _) = build_store();
    let q = probe_queries(&store.universe(), 1)[0];
    let service = Latched::holding(Arc::new(store), 1);
    let config = ServerConfig {
        request_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect_with(&server.local_addr().to_string(), single_shot()).unwrap();

    // The query's batch is parked past the handler's patience: the
    // client still gets an answer, and the connection stays usable.
    let timed_out = match client.query(&q) {
        Err(ClientError::Server(e)) => e,
        other => panic!("expected a structured error, got {other:?}"),
    };
    assert_eq!(timed_out.code, ErrorCode::Internal);
    assert!(
        timed_out.message.contains("timed out"),
        "{}",
        timed_out.message
    );
    client.ping().unwrap();

    service.open();
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.threads_joined);
}

#[test]
fn stats_remote_reply_matches_local_snapshot_shape() {
    let (store, _) = build_store();
    let store = Arc::new(store);
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let q = probe_queries(&store.universe(), 1)[0];
    let _ = client.query(&q).unwrap();

    let json = client.stats(None).unwrap();
    let doc = blot_json::Json::parse(&json).unwrap();
    assert_eq!(
        doc.get("enabled").and_then(blot_json::Json::as_bool),
        Some(blot_obs::enabled())
    );
    let metrics = doc.get("metrics").unwrap();
    if blot_obs::enabled() {
        let counters = metrics.get("counters").unwrap();
        assert!(counters.get("server.requests").is_some());
        assert!(
            counters.get("store.queries").is_some() || {
                // Store counter names are the store's concern; just require
                // a non-empty counter table alongside the server's.
                matches!(counters, blot_json::Json::Obj(pairs) if !pairs.is_empty())
            }
        );
    }

    // Local `blot stats --json` prints this same document for a store.
    let local = Json::Obj(blot_server::stats::document(
        &store.metrics_snapshot(),
        &store.drift_report(DriftBand::default()),
        None,
    ));
    let keys = |doc: &Json| match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("a stats document is an object, got {other}"),
    };
    assert_eq!(
        keys(&local),
        keys(&doc),
        "one document shape, local and remote"
    );
    for doc in [&local, &doc] {
        assert!(doc.get("text").is_none(), "no pre-rendered text: {doc}");
        // …and the CLI's one renderer shows both the same way.
        let text = cli_stats::to_text(doc);
        assert!(text.contains("cost-model drift"), "{text}");
        assert!(text.contains("zone-map pruning"), "{text}");
    }
    let _ = server.shutdown(Duration::from_secs(10));
}

#[test]
fn client_trace_context_round_trips_into_the_server_flight_recorder() {
    if !blot_obs::enabled() {
        return; // `off` build: spans are ZSTs, nothing to assert.
    }
    let (store, _) = build_store();
    let store = Arc::new(store);
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let q = probe_queries(&store.universe(), 1)[0];

    // The client opens a trace and ships its context with the query.
    let ctx = SpanContext::fresh();
    let remote = client.query_traced(&q, Some(ctx)).unwrap();
    assert!(!remote.records.is_empty());
    assert!(remote.admission_ms >= 0.0);
    assert!(remote.batch_ms >= 0.0);
    assert!(
        remote.store_ms > 0.0,
        "a served query must report store time"
    );

    // Root replies are sent only after `server.request` is finished, so
    // the whole tree is in the recorder by now. Every stage of the
    // request must appear under the client's trace id, parented inside
    // the trace (the wire context is the only out-of-snapshot parent).
    let records = store.recorder().snapshot();
    let of_trace: Vec<_> = records.iter().filter(|r| r.trace == ctx.trace).collect();
    for name in [
        names::SERVER_REQUEST,
        names::SERVER_ADMISSION,
        names::SERVER_BATCH,
        names::QUERY,
        names::ROUTE,
        names::MERGE,
        names::SCAN_UNIT,
        names::UNIT_DECODE,
    ] {
        assert!(
            of_trace.iter().any(|r| r.name == name),
            "span {name} missing from the client's trace"
        );
    }
    let request = of_trace
        .iter()
        .find(|r| r.name == names::SERVER_REQUEST)
        .unwrap();
    assert_eq!(request.parent, Some(ctx.span));
    let spans: Vec<_> = of_trace.iter().map(|r| r.span).collect();
    for rec in &of_trace {
        let parent = rec.parent.expect("every server span has a parent");
        assert!(
            parent == ctx.span || spans.contains(&parent),
            "span {} parented outside its own trace",
            rec.name
        );
    }

    // The wire `Trace` request exports the same tree as JSON.
    let json = client.trace(0.0, 0).unwrap();
    let doc = blot_json::Json::parse(&json).unwrap();
    assert!(matches!(&doc, blot_json::Json::Arr(items) if !items.is_empty()));
    assert!(json.contains(&ctx.trace.to_string()));
    // A slow-threshold far above any span filters everything out.
    let none = client.trace(1e12, 0).unwrap();
    assert_eq!(none, "[]");

    let _ = server.shutdown(Duration::from_secs(10));
}

#[test]
fn interleaved_traced_queries_never_cross_contaminate_span_trees() {
    if !blot_obs::enabled() {
        return;
    }
    let (store, _) = build_store();
    let store = Arc::new(store);
    let service = Latched::holding(Arc::clone(&store), 1);
    let config = ServerConfig {
        // With one batch parked and a linger nobody outlives, the four
        // traced queries below coalesce into ONE shared batch round —
        // the cross-contamination hazard.
        batch_linger: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let universe = store.universe();

    let occupant = ask(&addr, probe_queries(&universe, 1)[0]);
    service.wait_held(1);
    let contexts: Vec<SpanContext> = (0..4).map(|_| SpanContext::fresh()).collect();
    let workers: Vec<_> = contexts
        .iter()
        .enumerate()
        .map(|(i, &ctx)| {
            let addr = addr.clone();
            let q = probe_queries(&universe, 4)[i];
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.query_traced(&q, Some(ctx)).unwrap()
            })
        })
        .collect();
    wait_until("the four traced queries are queued", || {
        server.queued() == 4
    });
    service.open();
    for w in workers {
        let reply = w.join().unwrap();
        assert!(!reply.records.is_empty());
        assert!(reply.admission_ms > 0.0, "the query waited in the queue");
    }
    assert!(occupant.join().unwrap() > 0);
    assert_eq!(service.rounds().len(), 2, "the four shared one batch round");

    let records = store.recorder().snapshot();
    for ctx in &contexts {
        let of_trace: Vec<_> = records.iter().filter(|r| r.trace == ctx.trace).collect();
        assert!(
            of_trace.iter().any(|r| r.name == names::QUERY),
            "each trace keeps its own store.query root"
        );
        assert!(
            of_trace.iter().any(|r| r.name == names::SCAN_UNIT),
            "each trace keeps its own scan units"
        );
        // No span of this trace may be parented under another client's
        // trace: parents resolve within the trace or to its wire root.
        let spans: Vec<_> = of_trace.iter().map(|r| r.span).collect();
        for rec in &of_trace {
            if let Some(parent) = rec.parent {
                assert!(
                    parent == ctx.span || spans.contains(&parent),
                    "span {} of one trace parented under another",
                    rec.name
                );
            }
        }
        // The admission span's duration is the queue wait, and the
        // batch span says how many shared the round.
        let admission = of_trace
            .iter()
            .find(|r| r.name == names::SERVER_ADMISSION)
            .expect("each trace has its admission span");
        let queue_us = admission
            .notes()
            .iter()
            .find(|(k, _)| *k == names::QUEUE_US)
            .map(|(_, v)| *v)
            .expect("the admission span notes its queue wait");
        assert!(queue_us > 0);
        assert!(
            admission.dur_us >= queue_us,
            "the admission span covers the queue wait"
        );
        let batch = of_trace
            .iter()
            .find(|r| r.name == names::SERVER_BATCH)
            .expect("each trace has its batch span");
        assert!(batch.notes().contains(&(names::BATCH_SIZE, 4)));
    }

    let _ = server.shutdown(Duration::from_secs(10));
}

#[test]
fn malformed_frames_get_structured_errors_not_dropped_connections() {
    let (store, _) = build_store();
    let server = Server::start(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Well-framed but bogus payload: connection must stay open.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let bad = wire::encode_frame(wire::kind::RANGE_QUERY, &[0xAB; 10]);
        stream.write_all(&bad).unwrap();
        let frame = wire::read_frame(&mut stream).unwrap();
        match Response::decode(&frame).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected Error, got {other:?}"),
        }
        // Same connection still serves a valid request.
        let (kind, payload) = blot_server::wire::Request::Ping.encode();
        wire::write_frame(&mut stream, kind, &payload).unwrap();
        let frame = wire::read_frame(&mut stream).unwrap();
        assert!(matches!(Response::decode(&frame).unwrap(), Response::Pong));
    }

    // Broken framing (bad magic): a structured reply arrives before the
    // connection closes.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"GARBAGE-NOT-A-FRAME!").unwrap();
        let frame = wire::read_frame(&mut stream).unwrap();
        match Response::decode(&frame).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected Error, got {other:?}"),
        }
        // The server closes after a framing fault; the read drains to
        // EOF rather than hanging.
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
    }
}

/// A service whose answer to the whole universe is a million records —
/// more than one frame can carry — and one record to anything else.
struct Bulk {
    universe: Cuboid,
    registry: blot_obs::MetricsRegistry,
    pool: Arc<blot_storage::ScanExecutor>,
}

impl QueryService for Bulk {
    fn query_batch_traced(&self, queries: &[TracedQuery]) -> Vec<Result<QueryResult, CoreError>> {
        queries
            .iter()
            .map(|q| {
                let n = if q.range == self.universe {
                    1_000_000
                } else {
                    1
                };
                Ok(QueryResult {
                    records: (0..n).map(|i| Record::new(i, 0, 121.0, 31.0)).collect(),
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

#[test]
fn a_reply_too_large_for_a_frame_is_a_structured_error_on_a_live_connection() {
    let universe = FleetConfig::small().universe();
    let service = Arc::new(Bulk {
        universe,
        registry: blot_obs::MetricsRegistry::new(),
        pool: Arc::new(blot_storage::ScanExecutor::new(1)),
    });
    let server = Server::start(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    // ~38 bytes a record: a million of them overflow the 32 MiB frame.
    match client.query(&universe) {
        Err(blot_server::client::ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::ReplyTooLarge);
            assert_eq!(e.retry_after_ms, 0);
            assert!(e.message.contains("exceeds"), "{}", e.message);
        }
        other => panic!("expected ReplyTooLarge, got {other:?}"),
    }
    // Not retried, and the same connection goes on serving.
    assert_eq!(client.retries(), 0);
    let small = Cuboid::from_centroid(universe.centroid(), QuerySize::new(0.1, 0.1, 60.0));
    assert_eq!(client.query(&small).unwrap().records.len(), 1);
    client.ping().unwrap();

    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.threads_joined);
    if blot_obs::enabled() {
        assert_eq!(report.snapshot.counter("server.request_errors"), Some(1));
    }
}
