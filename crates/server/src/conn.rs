//! The accept loop and connection handlers.
//!
//! This file is the only place in the workspace's serving layer that
//! creates OS threads (the `thread-discipline` audit waives exactly
//! these sites): one accept-loop thread, a fixed pool of connection
//! handlers, and the two batch lanes. All *scan* parallelism still runs
//! on the shared [`blot_storage::ScanExecutor`], reached through
//! [`QueryService::query_batch_traced`].
//!
//! Connection lifecycle: a handler serves one connection for its whole
//! life, so the accept loop admits a socket only while fewer than
//! `min(max_conns, handlers)` are open — otherwise it replies
//! `Overloaded` and closes, never a silent drop and never a socket that
//! waits for a handler. An admitted socket is sent down an `mpsc`
//! channel whose receiver the handlers share; dropping the sender (the
//! accept loop returning) is what tells idle handlers to exit. Handlers
//! poll one byte at a time between frames so shutdown and idle
//! deadlines are observed within a tick (~150 ms) even on a silent
//! connection.

use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blot_core::prelude::*;
use blot_json::Json;
use blot_obs::{names, ServerMetrics};
use blot_storage::sync::Mutex;

use crate::batch::{AdmissionQueue, SubmitError};
use crate::server::ServerConfig;
use crate::shutdown::ShutdownFlag;
use crate::stats;
use crate::wire::{
    self, ErrorCode, Frame, FrameError, RemoteQueryResult, Request, Response, WireError,
};

/// How often blocked loops (accept, frame poll) re-check the shutdown
/// flag and deadlines.
const POLL_TICK: Duration = Duration::from_millis(150);
/// Accept-loop poll interval while no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Spawns a named service thread. Centralised here so the one
/// `thread-discipline` exemption (`xtask::THREAD_DISCIPLINE_EXEMPT_PATHS`)
/// covers every serving-layer spawn site: accept/handler/batch-lane
/// threads are long-lived I/O loops, and scans still run on the shared
/// `ScanExecutor`.
///
/// # Errors
///
/// Propagates the OS error if the thread cannot be created.
pub(crate) fn spawn_named(
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("blot-server-{name}"))
        .spawn(f)
}

/// Everything a connection thread needs, cheaply clonable.
pub(crate) struct ConnContext<S: ?Sized> {
    pub(crate) service: Arc<S>,
    pub(crate) queue: Arc<AdmissionQueue>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) flag: ShutdownFlag,
    pub(crate) config: ServerConfig,
    /// Open connections (admitted by the accept loop, not yet finished
    /// serving). A plain atomic, not the metrics gauge: with the
    /// `blot-obs` `off` feature gauges read zero, and admission control
    /// must not depend on observability being compiled in.
    pub(crate) active: Arc<AtomicUsize>,
}

impl<S: ?Sized> Clone for ConnContext<S> {
    fn clone(&self) -> Self {
        Self {
            service: Arc::clone(&self.service),
            queue: Arc::clone(&self.queue),
            metrics: self.metrics.clone(),
            flag: self.flag.clone(),
            config: self.config.clone(),
            active: Arc::clone(&self.active),
        }
    }
}

impl<S: ?Sized> std::fmt::Debug for ConnContext<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnContext")
            .field("active", &self.active.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The accept loop: non-blocking accept polled against the shutdown
/// flag. It owns the hand-off channel's only sender, so returning —
/// on shutdown, or when the listener cannot be made non-blocking —
/// closes the channel.
pub(crate) fn accept_loop<S: QueryService + ?Sized>(
    listener: &TcpListener,
    handoff: Sender<TcpStream>,
    ctx: &ConnContext<S>,
) {
    // Non-blocking accept is load-bearing: a blocking listener would pin
    // this thread inside `accept()` past the shutdown flag. Refuse to
    // serve rather than refuse to stop.
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    // Every handler serves one connection at a time for as long as it
    // stays open, so a connection past the pool would never be served.
    let cap = ctx.config.max_conns.min(ctx.config.handlers.max(1));
    while !ctx.flag.is_triggered() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                ctx.metrics.accepted.inc();
                if ctx.active.load(Ordering::Acquire) >= cap {
                    // At capacity: answer, don't silently drop.
                    ctx.metrics.rejected.inc();
                    reject_overloaded(stream);
                    continue;
                }
                ctx.active.fetch_add(1, Ordering::AcqRel);
                if handoff.send(stream).is_err() {
                    // Every handler has exited: nothing left to serve.
                    break;
                }
            }
            // Nothing pending, or a transient accept failure (EMFILE, an
            // aborted handshake): back off a tick and keep serving.
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

/// Best-effort `Overloaded` reply to a connection turned away at the
/// accept loop; the socket is closed afterwards either way.
fn reject_overloaded(mut stream: TcpStream) {
    // Without the write timeout an unresponsive peer could stall the
    // accept loop for the whole reply; skip the courtesy and just close.
    if stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .is_err()
    {
        return;
    }
    let message = "connection limit reached".to_owned();
    let (kind, payload) = error_response(ErrorCode::Overloaded, 100, message).encode();
    // Courtesy reply on a connection already being turned away — the
    // close that follows is the real signal.
    #[allow(clippy::let_underscore_must_use)]
    let _ = wire::write_frame(&mut stream, kind, &payload);
}

/// One handler-pool thread: serve sockets until the accept loop drops
/// the hand-off sender. Blocking in `recv` under the lock is the
/// `router::pool` pattern: one idle handler camps on the channel and
/// releases the lock before serving, so its siblings take the next
/// socket.
pub(crate) fn handler_loop<S: QueryService + ?Sized>(
    handoff: &Mutex<Receiver<TcpStream>>,
    ctx: &ConnContext<S>,
) {
    loop {
        let next = handoff.lock().recv();
        let Ok(stream) = next else { return };
        serve_connection(stream, ctx);
        ctx.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Outcome of polling for the next request frame.
enum Poll {
    Frame(Frame),
    /// Clean EOF from the peer.
    Eof,
    /// Idle deadline passed with no frame started.
    Idle,
    /// Shutdown flag tripped between frames.
    Shutdown,
    /// The frame was malformed at the framing layer (stream cannot be
    /// resynchronised).
    Fault(FrameError),
    /// Transport error.
    Io,
}

/// Waits for the next frame, checking the shutdown flag and the idle
/// deadline every [`POLL_TICK`].
fn poll_frame<S: ?Sized>(stream: &mut TcpStream, ctx: &ConnContext<S>) -> Poll {
    let idle_deadline = Instant::now() + ctx.config.idle_timeout;
    loop {
        if ctx.flag.is_triggered() {
            return Poll::Shutdown;
        }
        // A poll tick that cannot be armed would turn the read below
        // into an unbounded block; treat it like any transport fault.
        if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
            return Poll::Io;
        }
        let mut first = [0_u8; 1];
        match stream.read(&mut first) {
            Ok(0) => return Poll::Eof,
            Ok(_) => {
                // Frame under way: switch to the full I/O timeout for
                // the remainder.
                if stream
                    .set_read_timeout(Some(ctx.config.io_timeout))
                    .is_err()
                {
                    return Poll::Io;
                }
                let [first_byte] = first;
                return match wire::read_frame_rest(stream, first_byte) {
                    Ok(frame) => Poll::Frame(frame),
                    Err(FrameError::Io(_)) => Poll::Io,
                    Err(e) => Poll::Fault(e),
                };
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= idle_deadline {
                    return Poll::Idle;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Poll::Io,
        }
    }
}

/// Writes one reply frame; `false` when the peer is gone. A reply too
/// large for a frame goes out as a structured `ReplyTooLarge` error.
fn send<S: ?Sized>(stream: &mut TcpStream, ctx: &ConnContext<S>, resp: &Response) -> bool {
    if stream
        .set_write_timeout(Some(ctx.config.io_timeout))
        .is_err()
    {
        return false;
    }
    let (mut kind, mut payload) = resp.encode();
    if payload.len() > wire::MAX_PAYLOAD as usize {
        // The peer would reject the frame as oversize and drop the
        // connection: say why instead, and keep serving.
        ctx.metrics.request_errors.inc();
        let message = format!(
            "reply of {} bytes exceeds the {}-byte frame limit; narrow the range",
            payload.len(),
            wire::MAX_PAYLOAD
        );
        (kind, payload) = error_response(ErrorCode::ReplyTooLarge, 0, message).encode();
    }
    wire::write_frame(stream, kind, &payload).is_ok()
}

fn error_response(code: ErrorCode, retry_after_ms: u32, message: String) -> Response {
    Response::Error(WireError {
        code,
        retry_after_ms,
        message,
    })
}

/// Serves one connection until EOF, idle timeout, fault, or shutdown.
fn serve_connection<S: QueryService + ?Sized>(mut stream: TcpStream, ctx: &ConnContext<S>) {
    // Best-effort latency hint: a failure leaves Nagle on and answers
    // unchanged.
    #[allow(clippy::let_underscore_must_use)]
    let _ = stream.set_nodelay(true);
    ctx.metrics.connections.add(1);
    loop {
        match poll_frame(&mut stream, ctx) {
            Poll::Frame(frame) => {
                let started = Instant::now();
                ctx.metrics.requests.inc();
                let (resp, keep_open) = handle_frame(&frame, ctx);
                if matches!(resp, Response::Error(_)) {
                    ctx.metrics.request_errors.inc();
                }
                let sent = send(&mut stream, ctx, &resp);
                #[allow(clippy::cast_precision_loss)]
                ctx.metrics
                    .request_ms
                    .record(started.elapsed().as_secs_f64() * 1e3);
                if !sent || !keep_open {
                    break;
                }
            }
            Poll::Eof | Poll::Io => break,
            Poll::Idle => {
                let _ = send(
                    &mut stream,
                    ctx,
                    &error_response(ErrorCode::IdleTimeout, 0, "idle timeout".to_owned()),
                );
                break;
            }
            Poll::Shutdown => {
                let _ = send(
                    &mut stream,
                    ctx,
                    &error_response(
                        ErrorCode::ShuttingDown,
                        0,
                        "server shutting down".to_owned(),
                    ),
                );
                break;
            }
            Poll::Fault(e) => {
                // The stream cannot be resynchronised after a framing
                // fault; reply (structured, never a silent drop), then
                // close.
                let code = match e {
                    FrameError::BadVersion { .. } => ErrorCode::BadVersion,
                    _ => ErrorCode::Malformed,
                };
                let _ = send(&mut stream, ctx, &error_response(code, 0, e.to_string()));
                break;
            }
        }
    }
    ctx.metrics.connections.add(-1);
    // The socket is dropped next either way; the peer may have closed
    // its end already.
    #[allow(clippy::let_underscore_must_use)]
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Decodes and executes one well-framed request. Returns the reply and
/// whether the connection stays open.
fn handle_frame<S: QueryService + ?Sized>(frame: &Frame, ctx: &ConnContext<S>) -> (Response, bool) {
    let request = match Request::decode(frame) {
        Ok(r) => r,
        // A payload-level fault is recoverable — the frame boundary
        // held — so the connection stays open.
        Err(e) => return (error_response(ErrorCode::Malformed, 0, e.to_string()), true),
    };
    match request {
        Request::Ping => (Response::Pong, true),
        Request::Stats(band) => {
            // A coordinator service builds its own aggregated document;
            // everything else gets the standard one.
            let payload = ctx.service.stats_json(band).unwrap_or_else(|| {
                let metrics = ctx.service.metrics_registry().snapshot();
                let drift = ctx.service.drift_report(band.unwrap_or_default());
                Json::Obj(stats::document(&metrics, &drift, None)).to_string()
            });
            (Response::StatsOk(payload), true)
        }
        Request::RangeQuery(q) => {
            // Every remote query runs under a `server.request` root:
            // adopted from the client's wire context when present, a
            // fresh trace otherwise, so `blot trace --remote` sees the
            // full tree either way. (With `blot-obs/off` the spans are
            // ZSTs, `context()` is `None`, and nothing is recorded.)
            let recorder = ctx.service.recorder();
            let root = match q.ctx {
                Some(remote) => recorder.span_under(remote, names::SERVER_REQUEST),
                None => recorder.span(names::SERVER_REQUEST),
            };
            let trace_ctx = root.context();
            // The admission span is finished by the lane that drains
            // the query, so its duration is exactly the queue wait.
            let admission = trace_ctx
                .is_some()
                .then(|| root.child(names::SERVER_ADMISSION));
            let reply = match ctx.queue.submit(q.range, trace_ctx, admission) {
                Err(SubmitError::Overloaded { retry_after_ms }) => (
                    error_response(
                        ErrorCode::Overloaded,
                        retry_after_ms,
                        "admission queue full".to_owned(),
                    ),
                    true,
                ),
                Err(SubmitError::ShuttingDown) => (
                    error_response(
                        ErrorCode::ShuttingDown,
                        0,
                        "server shutting down".to_owned(),
                    ),
                    false,
                ),
                Ok(outcome) => match outcome.recv_timeout(ctx.config.request_timeout) {
                    Ok(outcome) => match outcome.result {
                        Ok(result) => (
                            Response::QueryOk(Box::new(RemoteQueryResult {
                                replica: result.replica,
                                sim_ms: result.sim_ms,
                                makespan_ms: result.makespan_ms,
                                partitions_scanned: u32::try_from(result.partitions_scanned)
                                    .unwrap_or(u32::MAX),
                                units_skipped: u64::try_from(result.units_skipped)
                                    .unwrap_or(u64::MAX),
                                bytes_skipped: result.bytes_skipped,
                                admission_ms: outcome.admission_ms,
                                batch_ms: outcome.batch_ms,
                                store_ms: outcome.store_ms,
                                failed_over: result.failed_over,
                                records: result.records,
                            })),
                            true,
                        ),
                        Err(e) => (
                            match e {
                                // A coordinator's shard failure forwards
                                // the failed shard's retry hint.
                                CoreError::ShardUnavailable { retry_after_ms, .. } => {
                                    error_response(
                                        ErrorCode::ShardUnavailable,
                                        retry_after_ms,
                                        e.to_string(),
                                    )
                                }
                                _ => error_response(ErrorCode::from_core(&e), 0, e.to_string()),
                            },
                            true,
                        ),
                    },
                    // No answer in time, or a lane panicked and dropped
                    // the sender unsent.
                    Err(_) => (
                        error_response(
                            ErrorCode::Internal,
                            0,
                            "request timed out waiting for its batch".to_owned(),
                        ),
                        true,
                    ),
                },
            };
            root.finish();
            reply
        }
        Request::Trace(filter) => {
            let records = ctx.service.recorder().snapshot();
            let records = blot_obs::trace::filter_slow(&records, filter.slow_ms);
            let records = blot_obs::trace::filter_last(
                &records,
                usize::try_from(filter.last).unwrap_or(usize::MAX),
            );
            (
                Response::TraceOk(blot_obs::trace::records_to_json(&records)),
                true,
            )
        }
    }
}
