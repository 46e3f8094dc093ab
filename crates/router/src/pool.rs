//! The per-shard connection pool.
//!
//! Every shard gets `conns_per_shard` persistent worker threads, each
//! owning one [`Client`] to that shard, made without connecting so the
//! shard may come up after the coordinator. Jobs are dispatched over a
//! per-shard channel whose receiver the workers share behind a
//! [`Mutex`] — the worker holding the lock blocks in `recv`, hands the
//! lock over once it has a job, and executes outside the lock, so a
//! shard's connections drain its queue concurrently.
//!
//! The retry policy is the client's ([`Client::query_traced`]): a shed
//! sub-query waits out the shard's retry-after hint, a transport error
//! reconnects, both with capped backoff, and a fatal wire error
//! surfaces at once. A worker always sends a reply — success or
//! structured failure — so the gather side never hangs on a dead
//! shard; at worst it waits out the bounded I/O timeouts.

#![allow(clippy::disallowed_methods)]

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blot_core::obs::DriftBand;
use blot_geo::Cuboid;
use blot_obs::SpanContext;
use blot_server::client::{Client, ClientConfig, ClientError};
use blot_server::wire::RemoteQueryResult;
use blot_storage::sync::Mutex;

use crate::error::RouterError;
use crate::shardmap::ShardMap;

/// Fallback retry hint when a shard fails without offering one
/// (connection refused, reset mid-reply, gather timeout).
pub const DEFAULT_RETRY_HINT_MS: u32 = 100;

/// Tuning for the pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (= max in-flight sub-queries) per shard.
    pub conns_per_shard: usize,
    /// Each worker's client: I/O timeout, retries per sub-query
    /// (`blot route serve --shard-retries`) and backoff ceiling.
    pub client: ClientConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            conns_per_shard: 2,
            client: ClientConfig {
                io_timeout: Duration::from_secs(10),
                max_retries: 2,
                max_backoff: Duration::from_millis(500),
            },
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
                let client = Client::new(addr, config.client.clone());
                let handle = std::thread::Builder::new()
                    .name(format!("blot-shard{shard}-c{conn}"))
                    .spawn(move || worker_loop(shard, client, &rx))
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
/// shard through its client, always reply.
fn worker_loop(shard: u32, mut client: Client, rx: &Mutex<Receiver<Job>>) {
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
                let before = client.retries();
                let outcome = client.query_traced(&range, ctx).map_err(failure);
                deliver(
                    &reply,
                    ShardReply {
                        shard,
                        outcome,
                        retries: u32::try_from(client.retries() - before).unwrap_or(u32::MAX),
                        wall_ms: dispatched.elapsed().as_secs_f64() * 1e3,
                    },
                );
            }
            // One attempt: stats are advisory, and a failed fetch has
            // dropped the connection, so the next one reconnects.
            Job::Stats { band, reply } => {
                deliver(&reply, (shard, client.stats(band).map_err(failure)));
            }
        }
    }
}

/// How a shard's failure reads to the coordinator: a reply retrying
/// cannot fix is fatal; a query still shed on its last attempt is
/// retryable after the shard's own hint; a transport fault is
/// retryable after the default probe interval.
fn failure(e: ClientError) -> ShardFailure {
    let (retryable, retry_after_ms) = match &e {
        ClientError::Server(_) => (false, 0),
        ClientError::Exhausted { last, .. } => {
            (true, last.retry_after_ms.max(DEFAULT_RETRY_HINT_MS))
        }
        _ => (true, DEFAULT_RETRY_HINT_MS),
    };
    ShardFailure {
        retryable,
        retry_after_ms,
        detail: e.to_string(),
    }
}
