//! The per-shard connection pool.
//!
//! Every shard gets `conns_per_shard` persistent worker threads, each
//! owning (at most) one [`Client`] connection to that shard. Jobs are
//! dispatched over a per-shard channel whose receiver the workers
//! share behind a [`Mutex`] — the worker holding the lock blocks in
//! `recv`, hands the lock over once it has a job, and executes
//! outside the lock, so a shard's connections drain its queue
//! concurrently.
//!
//! Retry policy lives here, per sub-query: transport errors tear the
//! connection down and reconnect; `Overloaded` / `ShardUnavailable`
//! replies honour the server's retry-after hint (capped); fatal wire
//! errors surface immediately. A worker always sends a reply — success
//! or structured failure — so the gather side never hangs on a dead
//! shard; at worst it waits out the bounded I/O timeouts.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blot_core::obs::DriftBand;
use blot_geo::Cuboid;
use blot_obs::SpanContext;
use blot_server::client::{disposition, Client, ClientConfig, Disposition};
use blot_server::wire::RemoteQueryResult;
use blot_storage::sync::Mutex;

use crate::error::RouterError;
use crate::shardmap::ShardMap;

/// Fallback retry hint when a shard fails without offering one
/// (connection refused, reset mid-reply, gather timeout).
pub const DEFAULT_RETRY_HINT_MS: u32 = 100;

/// Pause between reconnect attempts after a transport error, so a
/// crashed shard is probed, not hammered.
const RECONNECT_PAUSE: Duration = Duration::from_millis(20);

/// Tuning for the pool and its retry policy.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (= max in-flight sub-queries) per shard.
    pub conns_per_shard: usize,
    /// Extra attempts per sub-query after the first fails retryably.
    pub shard_retries: u32,
    /// Per-read/write transport timeout on shard connections.
    pub io_timeout: Duration,
    /// Ceiling on a single retry wait, whatever the shard's hint says.
    pub retry_backoff_cap: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            conns_per_shard: 2,
            shard_retries: 2,
            io_timeout: Duration::from_secs(10),
            retry_backoff_cap: Duration::from_millis(500),
        }
    }
}

/// How a sub-query failed, before the coordinator attaches shard
/// identity.
#[derive(Debug)]
pub(crate) struct ShardFailure {
    /// Whether waiting and retrying the whole query could succeed.
    pub retryable: bool,
    /// Suggested wait, ms.
    pub retry_after_ms: u32,
    /// Underlying cause.
    pub detail: String,
}

/// One shard's answer to a scattered sub-query.
#[derive(Debug)]
pub(crate) struct ShardReply {
    pub shard: u32,
    pub outcome: Result<RemoteQueryResult, ShardFailure>,
    /// Retries spent before this outcome.
    pub retries: u32,
    /// Wall time from the coordinator's dispatch to this outcome being
    /// decoded by the worker: pool queueing, retries and the shard's
    /// round trip.
    pub wall_ms: f64,
}

pub(crate) enum Job {
    Query {
        range: Cuboid,
        ctx: Option<SpanContext>,
        /// When the coordinator dispatched the query this leg belongs
        /// to.
        dispatched: Instant,
        reply: Sender<ShardReply>,
    },
    Stats {
        band: Option<DriftBand>,
        reply: Sender<(u32, Result<String, ShardFailure>)>,
    },
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Query { range, .. } => f.debug_struct("Query").field("range", range).finish(),
            Self::Stats { .. } => f.debug_struct("Stats").finish(),
        }
    }
}

/// The pool: one job channel per shard, fanned over that shard's
/// workers.
#[derive(Debug)]
pub(crate) struct ShardPool {
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns `conns_per_shard` workers per shard of `map`.
    ///
    /// # Errors
    ///
    /// [`RouterError::Spawn`] when the OS refuses a worker thread.
    pub fn new(map: &ShardMap, config: &PoolConfig) -> Result<Self, RouterError> {
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        for (shard, addr) in map.addrs().iter().enumerate() {
            let shard = u32::try_from(shard).unwrap_or(u32::MAX);
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            let rx = Arc::new(Mutex::new(rx));
            for conn in 0..config.conns_per_shard.max(1) {
                let rx = Arc::clone(&rx);
                let addr = addr.clone();
                let config = config.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("blot-shard{shard}-c{conn}"))
                    .spawn(move || worker_loop(shard, &addr, &config, &rx))
                    .map_err(RouterError::Spawn)?;
                workers.push(handle);
            }
            senders.push(tx);
        }
        Ok(Self { senders, workers })
    }

    /// Enqueues `job` for `shard`. `false` (the job is dropped) when
    /// the shard id is unknown or its workers have exited (pool shut
    /// down).
    #[must_use]
    pub fn submit(&self, shard: u32, job: Job) -> bool {
        self.senders
            .get(shard as usize)
            .is_some_and(|tx| tx.send(job).is_ok())
    }

    /// Drops the job channels and joins every worker.
    pub fn shutdown(&mut self) {
        self.senders.clear();
        for handle in self.workers.drain(..) {
            // An `Err` is a worker's panic payload; this runs from
            // `Drop`, which must not re-raise it.
            #[allow(clippy::let_underscore_must_use)]
            let _ = handle.join();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Hands a worker's reply to the gather side. The gather may already
/// have timed out and dropped its receiver; a failed send then means
/// no one is left to tell, so the drop is vetted once here instead of
/// at every reply site.
fn deliver<T>(reply: &Sender<T>, msg: T) {
    #[allow(clippy::let_underscore_must_use)] // see above: no one is left to tell
    let _ = reply.send(msg);
}

/// One worker: pull jobs off the shared receiver, run them against the
/// shard with retry/backoff, always reply.
fn worker_loop(shard: u32, addr: &str, config: &PoolConfig, rx: &Mutex<Receiver<Job>>) {
    let mut client: Option<Client> = None;
    loop {
        // Blocking in `recv` while holding the lock is deliberate: at
        // most one idle worker camps on the channel, and it releases
        // the lock before executing, so its siblings pick up the next
        // job concurrently.
        let recv = rx.lock().recv();
        let Ok(job) = recv else {
            return; // pool dropped — drain complete
        };
        match job {
            Job::Query {
                range,
                ctx,
                dispatched,
                reply,
            } => {
                let (outcome, retries) = run_query(&mut client, addr, config, &range, ctx);
                deliver(
                    &reply,
                    ShardReply {
                        shard,
                        outcome,
                        retries,
                        wall_ms: dispatched.elapsed().as_secs_f64() * 1e3,
                    },
                );
            }
            Job::Stats { band, reply } => {
                let outcome = run_stats(&mut client, addr, config, band);
                deliver(&reply, (shard, outcome));
            }
        }
    }
}

fn connect(addr: &str, config: &PoolConfig) -> Result<Client, String> {
    // Per-attempt retries are handled here (where the coordinator can
    // see them), so the inner client performs none of its own.
    let cc = ClientConfig {
        io_timeout: config.io_timeout,
        max_retries: 0,
        max_backoff: config.retry_backoff_cap,
    };
    Client::connect_with(addr, cc).map_err(|e| e.to_string())
}

/// Executes one sub-query with the pool's retry policy. Returns the
/// outcome and the number of retries spent.
fn run_query(
    client: &mut Option<Client>,
    addr: &str,
    config: &PoolConfig,
    range: &Cuboid,
    ctx: Option<SpanContext>,
) -> (Result<RemoteQueryResult, ShardFailure>, u32) {
    let mut retries = 0u32;
    loop {
        let attempt = (|| -> Result<Result<RemoteQueryResult, ShardFailure>, (String, u32)> {
            let conn = match client.as_mut() {
                Some(c) => c,
                None => {
                    let fresh = connect(addr, config).map_err(|e| (e, DEFAULT_RETRY_HINT_MS))?;
                    client.insert(fresh)
                }
            };
            match conn.query_once_traced(range, ctx) {
                // Transport fault: the connection is suspect either way.
                Err(e) => {
                    *client = None;
                    Err((e.to_string(), DEFAULT_RETRY_HINT_MS))
                }
                Ok(Ok(result)) => Ok(Ok(result)),
                Ok(Err(wire)) => match disposition(wire.code) {
                    Disposition::Fatal => Ok(Err(ShardFailure {
                        retryable: false,
                        retry_after_ms: 0,
                        detail: wire.to_string(),
                    })),
                    Disposition::Reconnect => {
                        *client = None;
                        Err((wire.to_string(), 0))
                    }
                    Disposition::RetryAfterHint => {
                        let hint = wire.retry_after_ms.max(1);
                        Err((wire.to_string(), hint))
                    }
                },
            }
        })();
        match attempt {
            Ok(outcome) => return (outcome, retries),
            Err((detail, hint)) => {
                if retries >= config.shard_retries {
                    return (
                        Err(ShardFailure {
                            retryable: true,
                            retry_after_ms: hint.max(DEFAULT_RETRY_HINT_MS),
                            detail,
                        }),
                        retries,
                    );
                }
                retries = retries.saturating_add(1);
                let wait = Duration::from_millis(u64::from(hint)).min(config.retry_backoff_cap);
                let wait = wait.max(RECONNECT_PAUSE);
                std::thread::sleep(wait);
            }
        }
    }
}

/// Fetches one shard's `Stats` document (single attempt plus one
/// reconnect; stats are advisory, not worth a backoff dance).
fn run_stats(
    client: &mut Option<Client>,
    addr: &str,
    config: &PoolConfig,
    band: Option<DriftBand>,
) -> Result<String, ShardFailure> {
    for _ in 0..2u8 {
        let conn = match client.as_mut() {
            Some(c) => c,
            None => match connect(addr, config) {
                Ok(fresh) => client.insert(fresh),
                Err(detail) => {
                    return Err(ShardFailure {
                        retryable: true,
                        retry_after_ms: DEFAULT_RETRY_HINT_MS,
                        detail,
                    })
                }
            },
        };
        match conn.stats(band) {
            Ok(doc) => return Ok(doc),
            Err(e) => {
                *client = None;
                if let blot_server::client::ClientError::Server(wire) = &e {
                    return Err(ShardFailure {
                        retryable: false,
                        retry_after_ms: 0,
                        detail: wire.to_string(),
                    });
                }
            }
        }
    }
    Err(ShardFailure {
        retryable: true,
        retry_after_ms: DEFAULT_RETRY_HINT_MS,
        detail: "stats fetch failed after reconnect".to_owned(),
    })
}
