//! A blocking client for the BLOT wire protocol.
//!
//! One [`Client`] owns one TCP connection, opened on first use and
//! reopened after a transport error. [`Client::query_traced`] is the
//! one retry loop of the serving tier: a query shed with `Overloaded`
//! or `ShardUnavailable`, or lost to a reset, refused or broken
//! connection, is tried again after a capped exponential backoff that
//! honours the server's retry-after hint. `blot query --remote` and the
//! shard router's workers both ask through it; a caller that wants a
//! single shot sets [`ClientConfig::max_retries`] to 0.

use std::fmt;
use std::net::TcpStream;
use std::time::Duration;

use blot_core::obs::DriftBand;
use blot_geo::Cuboid;
use blot_obs::SpanContext;

use crate::wire::{
    self, ErrorCode, Frame, FrameError, RemoteQueryResult, Request, Response, TraceFilter,
    WireError, WireQuery,
};

/// Client-side tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-read/write transport timeout.
    pub io_timeout: Duration,
    /// Retry attempts for a shed or transport-failed query before
    /// giving up.
    pub max_retries: u32,
    /// Backoff ceiling between retries.
    pub max_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(10),
            max_retries: 8,
            max_backoff: Duration::from_millis(2000),
        }
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The server's bytes did not parse as a frame.
    Frame(FrameError),
    /// The server answered with a structured error.
    Server(WireError),
    /// The server answered with the wrong reply kind.
    Protocol {
        /// What the client was waiting for.
        expected: &'static str,
    },
    /// Every attempt of a query was shed; `last` is the final reply,
    /// with its code and retry-after hint.
    Exhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The server's answer to the last attempt.
        last: WireError,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Frame(e) => write!(f, "protocol error: {e}"),
            Self::Server(e) => write!(f, "server error: {e}"),
            Self::Protocol { expected } => {
                write!(f, "unexpected reply kind (wanted {expected})")
            }
            Self::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => Self::Io(io),
            other => Self::Frame(other),
        }
    }
}

const _: () = {
    const fn require_error_traits<E: std::error::Error + Send + Sync>() {}
    require_error_traits::<ClientError>()
};

/// How a [`Client`] should react to a structured server error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Transient overload: wait out the server's retry-after hint (with
    /// backoff) and try again.
    RetryAfterHint,
    /// The cached connection is stale (the server reaped it as idle):
    /// reconnect and retry immediately — queries are read-only, so a
    /// repeat is safe.
    Reconnect,
    /// Permanent for this request — surface to the caller.
    Fatal,
}

/// The client-side disposition of every wire error code.
///
/// Exhaustive on purpose: adding an `ErrorCode` variant without
/// deciding its client behaviour fails to compile here, and
/// `cargo xtask lint` (rule `wire-registry`) checks the variant is
/// handled and test-covered.
#[must_use]
pub fn disposition(code: ErrorCode) -> Disposition {
    match code {
        // A coordinator's shard failure is transient from the client's
        // seat: the shard may restart or shed load, and the coordinator
        // forwards the shard's own retry hint.
        ErrorCode::Overloaded | ErrorCode::ShardUnavailable => Disposition::RetryAfterHint,
        ErrorCode::IdleTimeout => Disposition::Reconnect,
        ErrorCode::Malformed
        | ErrorCode::BadVersion
        | ErrorCode::ShuttingDown
        | ErrorCode::Storage
        | ErrorCode::NoReplicas
        | ErrorCode::NoSuchReplica
        | ErrorCode::Internal
        // The same range would encode to the same oversized reply.
        | ErrorCode::ReplyTooLarge => Disposition::Fatal,
    }
}

/// A blocking BLOT client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    config: ClientConfig,
    /// Cumulative retries performed by [`Client::query_traced`].
    retries: u64,
}

impl Client {
    /// A client for `addr` that has not connected yet: the first
    /// request connects, so the server may come up after the client
    /// is made.
    #[must_use]
    pub fn new(addr: &str, config: ClientConfig) -> Self {
        Self {
            addr: addr.to_owned(),
            stream: None,
            config,
            retries: 0,
        }
    }

    /// Connects to `addr` (e.g. `"127.0.0.1:7407"`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tunables.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<Self, ClientError> {
        let mut client = Self::new(addr, config);
        client.ensure_connected()?;
        Ok(client)
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            // Best-effort latency hint: a failure leaves Nagle on and
            // answers unchanged.
            #[allow(clippy::let_underscore_must_use)]
            let _ = stream.set_nodelay(true);
            // The timeouts are load-bearing: without them a wedged server
            // would hang `query` forever, so failing to arm them is a
            // connection-setup failure like `connect` itself.
            stream.set_read_timeout(Some(self.config.io_timeout))?;
            stream.set_write_timeout(Some(self.config.io_timeout))?;
            self.stream = Some(stream);
        }
        self.stream.as_mut().ok_or(ClientError::Protocol {
            expected: "connection",
        })
    }

    /// One request/reply exchange; any failure drops the cached
    /// connection (a stream that failed mid-frame cannot be trusted to
    /// be in sync), so the next call reconnects.
    fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        let (kind, payload) = request.encode();
        let result = (|| {
            let stream = self.ensure_connected()?;
            wire::write_frame(stream, kind, &payload)?;
            let frame: Frame = wire::read_frame(stream)?;
            Ok(Response::decode(&frame)?)
        })();
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors; [`ClientError::Server`] if the server
    /// answered with an error frame.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.exchange(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Protocol { expected: "Pong" }),
        }
    }

    /// Executes a range query with [`Client::query_traced`]'s retries.
    ///
    /// # Errors
    ///
    /// Same as [`Client::query_traced`].
    pub fn query(&mut self, range: &Cuboid) -> Result<RemoteQueryResult, ClientError> {
        self.query_traced(range, None)
    }

    /// Executes a range query, shipping `ctx` over the wire so the
    /// server joins the client's trace, and retrying up to
    /// `max_retries` times. A reply whose code is
    /// [`Disposition::RetryAfterHint`] waits the server's hint, and a
    /// transport error (reset, refused, broken pipe) waits without one;
    /// either wait is at least the current backoff (10 ms, doubled each
    /// time) and at most `max_backoff`. A transport error also drops
    /// the connection, so the next attempt reconnects; queries are
    /// read-only, so a repeat is safe.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when the last attempt was shed too;
    /// [`ClientError::Io`] when it failed in transport;
    /// [`ClientError::Server`] for a reply that retrying cannot fix;
    /// frame/protocol errors at once.
    pub fn query_traced(
        &mut self,
        range: &Cuboid,
        ctx: Option<SpanContext>,
    ) -> Result<RemoteQueryResult, ClientError> {
        let request = Request::RangeQuery(WireQuery { range: *range, ctx });
        let attempts = self.config.max_retries.saturating_add(1);
        let mut backoff = Duration::from_millis(10);
        let mut attempt = 1;
        loop {
            let hinted_ms = match self.exchange(&request) {
                Ok(Response::QueryOk(result)) => return Ok(*result),
                Ok(Response::Error(e)) => match disposition(e.code) {
                    Disposition::Fatal => return Err(ClientError::Server(e)),
                    _ if attempt >= attempts => {
                        return Err(ClientError::Exhausted { attempts, last: e })
                    }
                    // A stale connection: reconnect and ask again now.
                    Disposition::Reconnect => {
                        self.stream = None;
                        None
                    }
                    Disposition::RetryAfterHint => Some(e.retry_after_ms),
                },
                Ok(_) => {
                    return Err(ClientError::Protocol {
                        expected: "QueryOk",
                    })
                }
                Err(ClientError::Io(_)) if attempt < attempts => Some(0),
                Err(e) => return Err(e),
            };
            if let Some(ms) = hinted_ms {
                let hinted = Duration::from_millis(u64::from(ms));
                std::thread::sleep(hinted.max(backoff).min(self.config.max_backoff));
                backoff = backoff.saturating_mul(2);
            }
            self.retries += 1;
            attempt += 1;
        }
    }

    /// Fetches the server's stats snapshot as raw JSON.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors; [`ClientError::Server`] for error
    /// replies.
    pub fn stats(&mut self, band: Option<DriftBand>) -> Result<String, ClientError> {
        match self.exchange(&Request::Stats(band))? {
            Response::StatsOk(json) => Ok(json),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Protocol {
                expected: "StatsOk",
            }),
        }
    }

    /// Fetches the server's flight-recorder snapshot as raw span JSON,
    /// keeping only traces with a span of at least `slow_ms` (0 keeps
    /// all) and at most the `last` most recent traces (0 keeps all).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors; [`ClientError::Server`] for error
    /// replies.
    pub fn trace(&mut self, slow_ms: f64, last: u32) -> Result<String, ClientError> {
        match self.exchange(&Request::Trace(TraceFilter { slow_ms, last }))? {
            Response::TraceOk(json) => Ok(json),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Protocol {
                expected: "TraceOk",
            }),
        }
    }

    /// Cumulative retries performed by [`Client::query_traced`] over
    /// this client's lifetime.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn every_error_code_has_a_disposition() {
        assert_eq!(
            disposition(ErrorCode::Overloaded),
            Disposition::RetryAfterHint
        );
        assert_eq!(
            disposition(ErrorCode::ShardUnavailable),
            Disposition::RetryAfterHint
        );
        assert_eq!(disposition(ErrorCode::IdleTimeout), Disposition::Reconnect);
        for fatal in [
            ErrorCode::Malformed,
            ErrorCode::BadVersion,
            ErrorCode::ShuttingDown,
            ErrorCode::Storage,
            ErrorCode::NoReplicas,
            ErrorCode::NoSuchReplica,
            ErrorCode::Internal,
            ErrorCode::ReplyTooLarge,
        ] {
            assert_eq!(disposition(fatal), Disposition::Fatal);
        }
    }
}
