//! Server lifecycle: bind, spawn, serve, drain, report.

use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_obs::{MetricsRegistry, ServerMetrics, Snapshot};
use blot_storage::sync::Mutex;

use crate::batch::{run_lane, AdmissionQueue, LANES};
use crate::conn::{accept_loop, handler_loop, spawn_named, ConnContext};
use crate::shutdown::ShutdownFlag;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously open client connections; further
    /// connections get an `Overloaded` reply at accept time. The lower
    /// of this and `handlers` is the cap that applies.
    pub max_conns: usize,
    /// Connection-handler threads. Each serves one connection for as
    /// long as it stays open, so the lower of this and `max_conns` caps
    /// open connections.
    pub handlers: usize,
    /// Admission-queue capacity: queries waiting for a batch lane.
    pub queue_depth: usize,
    /// Most queries coalesced into one pooled round.
    pub max_batch: usize,
    /// How long an executing batch may hold the queue before a second
    /// lane drains beside it, and how long a query waits for company
    /// while callers overlap (see [`crate::batch`]). Never a wait on an
    /// idle server or for a lone caller: those are dispatched at once.
    pub batch_linger: Duration,
    /// Close connections idle longer than this.
    pub idle_timeout: Duration,
    /// Per-read/write transport timeout once a frame is under way.
    pub io_timeout: Duration,
    /// How long a connection handler waits for its query's batch.
    pub request_timeout: Duration,
    /// Slow-query threshold in simulated milliseconds; queries whose
    /// measured cost exceeds it land in the store's slow-query log,
    /// which the batch lanes drain to stderr. `0.0` disables the log.
    pub slow_query_ms: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_conns: 64,
            handlers: 8,
            queue_depth: 256,
            max_batch: 64,
            batch_linger: Duration::from_millis(1),
            idle_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(30),
            slow_query_ms: 0.0,
        }
    }
}

/// Failure to start a server.
#[derive(Debug)]
pub enum ServerError {
    /// The listen address could not be bound.
    Bind {
        /// Address requested.
        addr: String,
        /// OS error.
        source: std::io::Error,
    },
    /// A service thread could not be spawned.
    Spawn {
        /// Thread role.
        what: &'static str,
        /// OS error.
        source: std::io::Error,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            Self::Spawn { what, source } => write!(f, "cannot spawn {what} thread: {source}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Bind { source, .. } | Self::Spawn { source, .. } => Some(source),
        }
    }
}

const _: () = {
    const fn require_error_traits<E: std::error::Error + Send + Sync>() {}
    require_error_traits::<ServerError>()
};

/// What graceful shutdown accomplished.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Every service thread (accept, handlers, batch lanes) joined
    /// within the timeout.
    pub threads_joined: bool,
    /// The scan-executor pool drained its queue and joined its workers.
    pub pool_drained: bool,
    /// Final metrics snapshot, taken after the drain ("flush metrics").
    pub snapshot: Snapshot,
}

/// A running BLOT server.
///
/// Dropping a `Server` without calling [`shutdown`](Self::shutdown)
/// trips the shutdown flag and closes the admission queue, but does not block
/// joining threads; call `shutdown` for an orderly drain.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    flag: ShutdownFlag,
    threads: Vec<JoinHandle<()>>,
    queue: Arc<AdmissionQueue>,
    registry: MetricsRegistry,
    executor: Arc<blot_storage::ScanExecutor>,
}

impl Server {
    /// Binds `addr` and starts serving `service` in the background.
    ///
    /// # Errors
    ///
    /// [`ServerError::Bind`] if the address cannot be bound,
    /// [`ServerError::Spawn`] if a service thread cannot start.
    pub fn start<S: QueryService + ?Sized + 'static>(
        service: Arc<S>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr).map_err(|source| ServerError::Bind {
            addr: addr.to_owned(),
            source,
        })?;
        let local_addr = listener.local_addr().map_err(|source| ServerError::Bind {
            addr: addr.to_owned(),
            source,
        })?;
        let registry = service.metrics_registry();
        let metrics = ServerMetrics::register(&registry);
        let executor = service.executor();
        service.set_slow_query_ms(config.slow_query_ms);
        let flag = ShutdownFlag::new();
        let queue = AdmissionQueue::new(
            config.queue_depth,
            config.max_batch,
            config.batch_linger,
            metrics.clone(),
        );
        let (handoff, sockets) = std::sync::mpsc::channel();
        let sockets = Arc::new(Mutex::new(sockets));
        let ctx = ConnContext {
            service,
            queue: Arc::clone(&queue),
            metrics,
            flag: flag.clone(),
            config: config.clone(),
            active: Arc::new(AtomicUsize::new(0)),
        };

        let mut threads = Vec::with_capacity(config.handlers + LANES + 1);
        let spawn_err = |what, source| ServerError::Spawn { what, source };
        for i in 0..LANES {
            let ctx = ctx.clone();
            let queue = Arc::clone(&queue);
            threads.push(
                spawn_named(&format!("lane-{i}"), move || {
                    run_lane(ctx.service.as_ref(), &queue);
                })
                .map_err(|e| spawn_err("batch lane", e))?,
            );
        }
        for i in 0..config.handlers.max(1) {
            let ctx = ctx.clone();
            let sockets = Arc::clone(&sockets);
            threads.push(
                spawn_named(&format!("handler-{i}"), move || {
                    handler_loop(&sockets, &ctx)
                })
                .map_err(|e| spawn_err("handler", e))?,
            );
        }
        threads.push(
            spawn_named("accept", move || accept_loop(&listener, handoff, &ctx))
                .map_err(|e| spawn_err("accept", e))?,
        );

        Ok(Self {
            local_addr,
            flag,
            threads,
            queue,
            registry,
            executor,
        })
    }

    /// The bound address (resolves port 0 binds for tests).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clone of the shutdown latch; trigger it (from another thread,
    /// a test) to begin shutdown, or watch it to see shutdown begin.
    #[must_use]
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.flag.clone()
    }

    /// The registry serving-layer and store instruments live in.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Queries admitted and waiting for a batch lane right now. Unlike
    /// the `server.queue_depth` gauge it reads the queue itself, so it
    /// also works with `blot-obs/off`.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.depth()
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// join service threads, drain the scan pool, flush metrics.
    ///
    /// Already-admitted queries are answered; new ones get
    /// `ShuttingDown`. The per-phase deadline is `timeout` overall.
    #[must_use]
    pub fn shutdown(mut self, timeout: Duration) -> ShutdownReport {
        let deadline = Instant::now() + timeout;
        // 1. Stop accepting and admitting. The batch lanes drain what
        //    is already queued before exiting; handlers answer
        //    in-flight requests, then see the flag; the accept loop
        //    sees it too and drops the hand-off sender, which lets
        //    idle handlers exit.
        self.flag.trigger();
        self.queue.close();
        // 2. Join service threads (accept first in the vec order does
        //    not matter; is_finished polling honours one deadline).
        let poll = Duration::from_millis(5);
        let mut threads_joined = true;
        for handle in std::mem::take(&mut self.threads) {
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(poll);
            }
            if handle.is_finished() {
                // An `Err` is the thread's panic payload; shutdown
                // still has the pool to drain and metrics to flush.
                #[allow(clippy::let_underscore_must_use)]
                let _ = handle.join();
            } else {
                threads_joined = false;
            }
        }
        // 3. Drain and join the scan pool.
        let remaining = deadline.saturating_duration_since(Instant::now());
        let pool_drained = self.executor.shutdown(remaining.max(poll));
        // 4. Flush: final snapshot after all recording stopped.
        let snapshot = self.registry.snapshot();
        ShutdownReport {
            threads_joined,
            pool_drained,
            snapshot,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.flag.trigger();
        self.queue.close();
        // Threads are detached if `shutdown` was not called; they exit
        // on their next poll tick.
    }
}
