//! The BLOT wire protocol: length-prefixed binary frames.
//!
//! Every message is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "BLOT"
//! 4       1     protocol version (currently 1)
//! 5       1     frame kind
//! 6       2     reserved (must be zero)
//! 8       4     payload length, little-endian
//! 12      n     payload (kind-specific, every integer little-endian)
//! ```
//!
//! Requests are `Ping` (empty), `RangeQuery` (six `f64`s: the min and
//! max corners of the cuboid) and `Stats` (empty for the default drift
//! band, or `lo: f64, hi: f64, min_samples: u64`). Replies are `Pong`,
//! `QueryOk` (routing metadata plus the result records as a
//! `ROW`/`PLAIN` storage unit — the same lossless codec the store
//! uses on disk, so remote results are bit-identical to local ones),
//! `StatsOk` (a UTF-8 JSON document) and `Error` (a numeric
//! [`ErrorCode`], a retry-after hint in milliseconds, and a human
//! message). A server never answers a decodable-but-invalid frame by
//! dropping the connection; it answers with `Error`.
//!
//! Decoding never panics and never trusts a length field beyond
//! [`MAX_PAYLOAD`]; the fuzz target [`fuzz_decode`] feeds arbitrary
//! bytes through every decoder.

use std::fmt;
use std::io::{Read, Write};

use blot_codec::{Compression, EncodingScheme, Layout};
use blot_core::obs::DriftBand;
use blot_core::CoreError;
use blot_geo::{Cuboid, Point};
use blot_model::{Record, RecordBatch};
use blot_obs::{SpanContext, SpanId, TraceId};

/// Frame magic: every frame starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"BLOT";
/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;
/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a frame payload. A header claiming more is rejected
/// before any allocation happens.
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

/// Frame kind tags. Requests have the high bit clear, replies set
/// (`ERROR` deliberately stands out as `0xFF`).
pub mod kind {
    /// Liveness probe.
    pub const PING: u8 = 0x01;
    /// Range query over the store.
    pub const RANGE_QUERY: u8 = 0x02;
    /// Metrics + drift snapshot.
    pub const STATS: u8 = 0x03;
    /// Flight-recorder trace export.
    pub const TRACE: u8 = 0x04;
    /// Reply to `PING`.
    pub const PONG: u8 = 0x81;
    /// Successful query reply.
    pub const QUERY_OK: u8 = 0x82;
    /// Successful stats reply.
    pub const STATS_OK: u8 = 0x83;
    /// Successful trace-export reply.
    pub const TRACE_OK: u8 = 0x84;
    /// Structured error reply.
    pub const ERROR: u8 = 0xFF;
}

/// The lossless scheme used for the records blob in `QueryOk` replies.
#[must_use]
pub fn records_scheme() -> EncodingScheme {
    EncodingScheme::new(Layout::Row, Compression::Plain)
}

/// Wire-protocol decode/transport failure.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    BadVersion {
        /// Version byte received.
        got: u8,
    },
    /// Unknown frame kind for this direction.
    UnknownKind {
        /// Kind byte received.
        got: u8,
    },
    /// The header claimed a payload larger than [`MAX_PAYLOAD`].
    Oversize {
        /// Claimed payload length.
        len: u32,
    },
    /// The payload ended before its advertised content.
    Truncated,
    /// The payload continued past its advertised content.
    Trailing,
    /// A payload field failed validation.
    BadPayload {
        /// Which field, for diagnostics.
        what: &'static str,
    },
    /// Transport failure underneath the framing.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad frame magic (expected \"BLOT\")"),
            Self::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (speak {VERSION})")
            }
            Self::UnknownKind { got } => write!(f, "unknown frame kind 0x{got:02X}"),
            Self::Oversize { len } => {
                write!(f, "payload length {len} exceeds limit {MAX_PAYLOAD}")
            }
            Self::Truncated => write!(f, "truncated frame payload"),
            Self::Trailing => write!(f, "trailing bytes after frame payload"),
            Self::BadPayload { what } => write!(f, "invalid payload field: {what}"),
            Self::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

const _: () = {
    const fn require_error_traits<E: std::error::Error + Send + Sync>() {}
    require_error_traits::<FrameError>()
};

/// Numeric error codes carried by `Error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request frame could not be decoded.
    Malformed = 1,
    /// The client spoke an unsupported protocol version.
    BadVersion = 2,
    /// The admission queue is full; retry after the hint.
    Overloaded = 3,
    /// The server is draining and accepts no new queries.
    ShuttingDown = 4,
    /// Every candidate replica failed at the storage layer.
    Storage = 5,
    /// The store holds no replicas.
    NoReplicas = 6,
    /// The query named a replica that was never built.
    NoSuchReplica = 7,
    /// Any other server-side failure.
    Internal = 8,
    /// The connection sat idle past the server's idle timeout.
    IdleTimeout = 9,
    /// A coordinator could not reach (or was shed by) one of its
    /// shards; the query produced no partial results. Retry after the
    /// hint — the shard may recover or the shard map may heal.
    ShardUnavailable = 10,
    /// The reply would not fit in one frame ([`MAX_PAYLOAD`]); nothing
    /// was sent in its place. Permanent for this request — narrow the
    /// range — but the connection stays usable.
    ReplyTooLarge = 11,
}

impl ErrorCode {
    /// Every code, in wire order. [`Self::from_u16`] decodes by looking
    /// codes up here; a unit test pins that the list names every variant.
    pub const ALL: [Self; 11] = [
        Self::Malformed,
        Self::BadVersion,
        Self::Overloaded,
        Self::ShuttingDown,
        Self::Storage,
        Self::NoReplicas,
        Self::NoSuchReplica,
        Self::Internal,
        Self::IdleTimeout,
        Self::ShardUnavailable,
        Self::ReplyTooLarge,
    ];

    /// The wire representation.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Parses a wire code; unknown codes collapse to [`Self::Internal`]
    /// so old clients survive new servers.
    #[must_use]
    pub fn from_u16(raw: u16) -> Self {
        Self::ALL
            .into_iter()
            .find(|code| code.as_u16() == raw)
            .unwrap_or(Self::Internal)
    }

    /// Maps a store error onto the wire.
    #[must_use]
    pub fn from_core(e: &CoreError) -> Self {
        match e {
            CoreError::Storage(_) => Self::Storage,
            CoreError::NoReplicas => Self::NoReplicas,
            CoreError::NoSuchReplica { .. } => Self::NoSuchReplica,
            CoreError::ShardUnavailable { .. } => Self::ShardUnavailable,
            _ => Self::Internal,
        }
    }
}

/// The structured payload of an `Error` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub code: ErrorCode,
    /// For [`ErrorCode::Overloaded`] and [`ErrorCode::ShardUnavailable`]:
    /// how long the client should wait before retrying, in
    /// milliseconds. Zero means "no hint".
    pub retry_after_ms: u32,
    /// Human-readable detail (never required for correct behaviour).
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)?;
        if self.retry_after_ms > 0 {
            write!(f, " (retry after {} ms)", self.retry_after_ms)?;
        }
        Ok(())
    }
}

/// A query result as carried on the wire (the subset of
/// [`blot_core::store::QueryResult`] a remote client can see), plus
/// the server-side stage breakdown of where the request's wall time
/// went.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteQueryResult {
    /// The matching records, in the replica's scan order.
    pub records: RecordBatch,
    /// Replica that served the query.
    pub replica: u32,
    /// Simulated total scan cost, ms.
    pub sim_ms: f64,
    /// Simulated makespan, ms.
    pub makespan_ms: f64,
    /// Partitions scanned.
    pub partitions_scanned: u32,
    /// Involved units skipped via their zone-map footer (counted
    /// within `partitions_scanned`).
    pub units_skipped: u64,
    /// Payload bytes the skipped units never transferred.
    pub bytes_skipped: u64,
    /// Wall ms the query waited in the admission queue.
    pub admission_ms: f64,
    /// Wall ms from batch drain to this query's result being posted
    /// (batch residency).
    pub batch_ms: f64,
    /// Wall ms the store spent executing the whole pooled batch round.
    pub store_ms: f64,
    /// Replicas that failed before one answered.
    pub failed_over: Vec<u32>,
}

/// The payload of a [`Request::RangeQuery`]: the range plus an
/// optional client-supplied trace context. When present, the server
/// executes the query under the client's trace so its flight-recorder
/// spans parent onto the client's span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireQuery {
    /// The query range.
    pub range: Cuboid,
    /// Client-supplied trace context, if the client is tracing.
    pub ctx: Option<SpanContext>,
}

impl WireQuery {
    /// An untraced wire query.
    #[must_use]
    pub fn new(range: Cuboid) -> Self {
        Self { range, ctx: None }
    }
}

/// The payload of a [`Request::Trace`]: which flight-recorder spans to
/// export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFilter {
    /// Keep only traces in which some span lasted at least this many
    /// wall milliseconds; `0` keeps everything.
    pub slow_ms: f64,
    /// Keep only the most recent `last` traces; `0` keeps everything.
    pub last: u32,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Execute a range query (optionally under a client trace context).
    RangeQuery(WireQuery),
    /// Snapshot metrics and drift; `None` uses the server's default
    /// band.
    Stats(Option<DriftBand>),
    /// Export the server's flight recorder.
    Trace(TraceFilter),
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Successful query.
    QueryOk(Box<RemoteQueryResult>),
    /// Stats snapshot (a JSON document).
    StatsOk(String),
    /// Flight-recorder export (a JSON array of span records).
    TraceOk(String),
    /// Structured failure; the connection stays usable unless the code
    /// says otherwise.
    Error(WireError),
}

/// A decoded frame: kind byte plus raw payload.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame kind (see [`kind`]).
    pub kind: u8,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

// ---------------------------------------------------------------------
// Payload cursor: bounds-checked little-endian reads, no indexing.

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(FrameError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(b.try_into().unwrap_or([0; 2])))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap_or([0; 4])))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
    }

    fn u128(&mut self) -> Result<u128, FrameError> {
        let b = self.take(16)?;
        Ok(u128::from_le_bytes(b.try_into().unwrap_or([0; 16])))
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::Trailing)
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads the optional trailing trace context of a `RangeQuery`: absent
/// (no bytes left) or exactly 24 bytes (`u128` trace id + `u64` span
/// id, both nonzero-trace).
fn read_trace_ctx(c: &mut Cursor<'_>) -> Result<Option<SpanContext>, FrameError> {
    if c.remaining() == 0 {
        return Ok(None);
    }
    let trace = c.u128()?;
    let span = c.u64()?;
    if trace == 0 {
        return Err(FrameError::BadPayload {
            what: "zero trace id",
        });
    }
    Ok(Some(SpanContext {
        trace: TraceId(trace),
        span: SpanId(span),
    }))
}

fn read_cuboid(c: &mut Cursor<'_>) -> Result<Cuboid, FrameError> {
    let vals = [c.f64()?, c.f64()?, c.f64()?, c.f64()?, c.f64()?, c.f64()?];
    if vals.iter().any(|v| !v.is_finite()) {
        return Err(FrameError::BadPayload {
            what: "non-finite query coordinate",
        });
    }
    let [x0, y0, t0, x1, y1, t1] = vals;
    let (min, max) = (Point::new(x0, y0, t0), Point::new(x1, y1, t1));
    // `Cuboid::new` panics on inverted bounds; the wire layer must not.
    for axis in 0..3 {
        if min.axis(axis) > max.axis(axis) {
            return Err(FrameError::BadPayload {
                what: "query min exceeds max",
            });
        }
    }
    Ok(Cuboid::new(min, max))
}

fn put_cuboid(out: &mut Vec<u8>, q: &Cuboid) {
    let (min, max) = (q.min(), q.max());
    for v in [min.x, min.y, min.t, max.x, max.y, max.t] {
        put_f64(out, v);
    }
}

// ---------------------------------------------------------------------
// Frame transport.

/// Serialises one frame (header + payload) into a byte vector.
///
/// A `QueryOk` carrying some 890 k records (or a large enough stats or
/// trace document) encodes to more than [`MAX_PAYLOAD`], which the
/// peer's [`read_frame`] rejects as [`FrameError::Oversize`]: senders
/// check the payload length first — the server's connection handler
/// answers [`ErrorCode::ReplyTooLarge`] instead. Past `u32::MAX` the
/// length field saturates, so even then the peer rejects the frame
/// rather than mis-framing the stream.
#[must_use]
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    put_u16(&mut out, 0);
    put_u32(&mut out, u32::try_from(payload.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(payload);
    out
}

/// Writes one frame to `w` (single `write_all`, then flush).
///
/// # Errors
///
/// Propagates transport errors from `w`.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Reads one complete frame from `r`.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure (including EOF mid-frame),
/// or any framing error from the header.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut first = [0_u8; 1];
    r.read_exact(&mut first)?;
    let [first_byte] = first;
    read_frame_rest(r, first_byte)
}

/// Reads the remainder of a frame whose first byte was already
/// consumed (connection handlers poll a single byte so they can check
/// shutdown and idle deadlines between frames).
///
/// # Errors
///
/// Same contract as [`read_frame`].
pub fn read_frame_rest<R: Read>(r: &mut R, first: u8) -> Result<Frame, FrameError> {
    let mut rest = [0_u8; HEADER_LEN - 1];
    r.read_exact(&mut rest)?;
    let mut header = [0_u8; HEADER_LEN];
    if let Some(h0) = header.first_mut() {
        *h0 = first;
    }
    if let Some(dst) = header.get_mut(1..) {
        dst.copy_from_slice(&rest);
    }
    let mut c = Cursor::new(&header);
    if c.take(4)? != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = c.take(1)?.first().copied().unwrap_or(0);
    if version != VERSION {
        return Err(FrameError::BadVersion { got: version });
    }
    let kind = c.take(1)?.first().copied().unwrap_or(0);
    let _reserved = c.u16()?;
    let len = c.u32()?;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize { len });
    }
    // Bound the read with `take` so a lying peer cannot make us wait
    // for more than the advertised payload.
    let mut payload = Vec::with_capacity(len as usize);
    let got = r.take(u64::from(len)).read_to_end(&mut payload)?;
    if got < len as usize {
        return Err(FrameError::Truncated);
    }
    Ok(Frame { kind, payload })
}

// ---------------------------------------------------------------------
// Request / response codecs.

impl Request {
    /// Serialises into `(kind, payload)`.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Self::Ping => (kind::PING, Vec::new()),
            Self::RangeQuery(q) => {
                let mut out = Vec::with_capacity(72);
                put_cuboid(&mut out, &q.range);
                if let Some(ctx) = q.ctx {
                    put_u128(&mut out, ctx.trace.0);
                    put_u64(&mut out, ctx.span.0);
                }
                (kind::RANGE_QUERY, out)
            }
            Self::Stats(None) => (kind::STATS, Vec::new()),
            Self::Stats(Some(band)) => {
                let mut out = Vec::with_capacity(24);
                put_f64(&mut out, band.lo);
                put_f64(&mut out, band.hi);
                put_u64(&mut out, band.min_samples);
                (kind::STATS, out)
            }
            Self::Trace(filter) => {
                let mut out = Vec::with_capacity(12);
                put_f64(&mut out, filter.slow_ms);
                put_u32(&mut out, filter.last);
                (kind::TRACE, out)
            }
        }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::UnknownKind`] for reply kinds or garbage;
    /// [`FrameError::Truncated`] / [`FrameError::Trailing`] /
    /// [`FrameError::BadPayload`] for a payload that does not match its
    /// kind.
    pub fn decode(frame: &Frame) -> Result<Self, FrameError> {
        let mut c = Cursor::new(&frame.payload);
        let req = match frame.kind {
            kind::PING => Self::Ping,
            kind::RANGE_QUERY => {
                let range = read_cuboid(&mut c)?;
                let ctx = read_trace_ctx(&mut c)?;
                Self::RangeQuery(WireQuery { range, ctx })
            }
            kind::STATS => {
                if frame.payload.is_empty() {
                    Self::Stats(None)
                } else {
                    let (lo, hi) = (c.f64()?, c.f64()?);
                    let min_samples = c.u64()?;
                    if !lo.is_finite() || !hi.is_finite() || lo > hi {
                        return Err(FrameError::BadPayload {
                            what: "drift band bounds",
                        });
                    }
                    Self::Stats(Some(DriftBand {
                        lo,
                        hi,
                        min_samples,
                    }))
                }
            }
            kind::TRACE => {
                let slow_ms = c.f64()?;
                let last = c.u32()?;
                if !slow_ms.is_finite() || slow_ms < 0.0 {
                    return Err(FrameError::BadPayload {
                        what: "trace slow_ms",
                    });
                }
                Self::Trace(TraceFilter { slow_ms, last })
            }
            got => return Err(FrameError::UnknownKind { got }),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises into `(kind, payload)`.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Self::Pong => (kind::PONG, Vec::new()),
            Self::QueryOk(r) => {
                let blob = records_scheme().encode(&r.records);
                let mut out = Vec::with_capacity(32 + 4 * r.failed_over.len() + blob.len());
                put_u32(&mut out, r.replica);
                put_u32(&mut out, r.partitions_scanned);
                put_u32(
                    &mut out,
                    u32::try_from(r.failed_over.len()).unwrap_or(u32::MAX),
                );
                put_f64(&mut out, r.sim_ms);
                put_f64(&mut out, r.makespan_ms);
                put_u64(&mut out, r.units_skipped);
                put_u64(&mut out, r.bytes_skipped);
                put_f64(&mut out, r.admission_ms);
                put_f64(&mut out, r.batch_ms);
                put_f64(&mut out, r.store_ms);
                for &id in &r.failed_over {
                    put_u32(&mut out, id);
                }
                put_u32(&mut out, u32::try_from(blob.len()).unwrap_or(u32::MAX));
                out.extend_from_slice(&blob);
                (kind::QUERY_OK, out)
            }
            Self::StatsOk(json) => (kind::STATS_OK, json.clone().into_bytes()),
            Self::TraceOk(json) => (kind::TRACE_OK, json.clone().into_bytes()),
            Self::Error(e) => {
                let msg = e.message.as_bytes();
                let msg_len = u16::try_from(msg.len()).unwrap_or(u16::MAX);
                let mut out = Vec::with_capacity(8 + usize::from(msg_len));
                put_u16(&mut out, e.code.as_u16());
                put_u32(&mut out, e.retry_after_ms);
                put_u16(&mut out, msg_len);
                out.extend_from_slice(msg.get(..usize::from(msg_len)).unwrap_or(msg));
                (kind::ERROR, out)
            }
        }
    }

    /// Decodes a reply frame.
    ///
    /// # Errors
    ///
    /// Same contract as [`Request::decode`], mirrored for reply kinds.
    pub fn decode(frame: &Frame) -> Result<Self, FrameError> {
        let mut c = Cursor::new(&frame.payload);
        let resp = match frame.kind {
            kind::PONG => Self::Pong,
            kind::QUERY_OK => {
                let replica = c.u32()?;
                let partitions_scanned = c.u32()?;
                let n_failed = c.u32()?;
                let sim_ms = c.f64()?;
                let makespan_ms = c.f64()?;
                let units_skipped = c.u64()?;
                let bytes_skipped = c.u64()?;
                let admission_ms = c.f64()?;
                let batch_ms = c.f64()?;
                let store_ms = c.f64()?;
                // `n_failed` is untrusted: bound it by the bytes that
                // actually remain before allocating.
                let remaining = frame.payload.len().saturating_sub(c.pos) / 4;
                if n_failed as usize > remaining {
                    return Err(FrameError::Truncated);
                }
                let mut failed_over = Vec::with_capacity(n_failed as usize);
                for _ in 0..n_failed {
                    failed_over.push(c.u32()?);
                }
                let blob_len = c.u32()? as usize;
                let blob = c.take(blob_len)?;
                let records =
                    records_scheme()
                        .decode(blob)
                        .map_err(|_| FrameError::BadPayload {
                            what: "records blob",
                        })?;
                Self::QueryOk(Box::new(RemoteQueryResult {
                    records,
                    replica,
                    sim_ms,
                    makespan_ms,
                    partitions_scanned,
                    units_skipped,
                    bytes_skipped,
                    admission_ms,
                    batch_ms,
                    store_ms,
                    failed_over,
                }))
            }
            kind::STATS_OK => {
                let json = String::from_utf8(frame.payload.clone()).map_err(|_| {
                    FrameError::BadPayload {
                        what: "stats JSON is not UTF-8",
                    }
                })?;
                // The cursor never advanced; consume it so `finish`
                // does not flag the payload as trailing (taking the
                // whole payload cannot run short).
                #[allow(clippy::let_underscore_must_use)]
                let _ = c.take(frame.payload.len());
                Self::StatsOk(json)
            }
            kind::TRACE_OK => {
                let json = String::from_utf8(frame.payload.clone()).map_err(|_| {
                    FrameError::BadPayload {
                        what: "trace JSON is not UTF-8",
                    }
                })?;
                // Same trailing-bytes bookkeeping as `StatsOk`.
                #[allow(clippy::let_underscore_must_use)]
                let _ = c.take(frame.payload.len());
                Self::TraceOk(json)
            }
            kind::ERROR => {
                let code = ErrorCode::from_u16(c.u16()?);
                let retry_after_ms = c.u32()?;
                let msg_len = usize::from(c.u16()?);
                let msg = c.take(msg_len)?;
                let message = String::from_utf8_lossy(msg).into_owned();
                Self::Error(WireError {
                    code,
                    retry_after_ms,
                    message,
                })
            }
            got => return Err(FrameError::UnknownKind { got }),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Samples of every [`Request`] and [`Response`] variant: each optional
/// payload part present and absent, every field set to a non-default
/// value, plus the all-zero trace filter the decoder must accept.
/// Payload structs are written out in full, so a new field must be named
/// here, and the wire unit tests pin that every sample survives
/// `decode(encode(x)) == x` and that the list holds every variant. The
/// fuzzer's `server_frame` seeds are these frames.
#[must_use]
pub fn samples() -> (Vec<Request>, Vec<Response>) {
    let range = Cuboid::new(Point::new(120.0, 30.0, 0.0), Point::new(122.0, 32.0, 1.0e8));
    let requests = vec![
        Request::Ping,
        Request::RangeQuery(WireQuery { range, ctx: None }),
        Request::RangeQuery(WireQuery {
            range,
            ctx: Some(SpanContext {
                trace: TraceId(0x5EED_0000_0000_0000_0000_0000_0000_0001),
                span: SpanId(0x5EED_0002),
            }),
        }),
        Request::Stats(None),
        Request::Stats(Some(DriftBand {
            lo: 0.25,
            hi: 4.0,
            min_samples: 3,
        })),
        Request::Trace(TraceFilter {
            slow_ms: 2.5,
            last: 4,
        }),
        Request::Trace(TraceFilter {
            slow_ms: 0.0,
            last: 0,
        }),
    ];
    let records = (0..8_u32)
        .map(|i| Record {
            oid: i,
            time: 1_300_000_000 + i64::from(i) * 15,
            x: 121.0 + f64::from(i) * 1e-4,
            y: 31.0 + f64::from(i) * 1e-5,
            speed: 13.5,
            heading: 270.0,
            occupied: i % 2 == 0,
            passengers: 2,
        })
        .collect();
    let responses = vec![
        Response::Pong,
        Response::QueryOk(Box::new(RemoteQueryResult {
            records,
            replica: 1,
            sim_ms: 3.5,
            makespan_ms: 1.25,
            partitions_scanned: 6,
            units_skipped: 2,
            bytes_skipped: 4096,
            admission_ms: 0.5,
            batch_ms: 0.75,
            store_ms: 2.0,
            failed_over: vec![0, 2],
        })),
        Response::StatsOk("{\"enabled\":true}".to_owned()),
        Response::TraceOk("[{\"name\":\"store.query\"}]".to_owned()),
        Response::Error(WireError {
            code: ErrorCode::Overloaded,
            retry_after_ms: 40,
            message: "queue full".to_owned(),
        }),
    ];
    (requests, responses)
}

/// Fuzz entry point: decoding arbitrary bytes must never panic,
/// whatever corner of the grammar they land in. Wired into
/// `cargo xtask fuzz` as the `server_frame` target.
pub fn fuzz_decode(bytes: &[u8]) {
    // Full frames from a byte stream.
    let mut reader = bytes;
    if let Ok(frame) = read_frame(&mut reader) {
        exercise(&frame);
    }
    // Raw kind + payload splits, bypassing the header.
    if let Some((&kind, payload)) = bytes.split_first() {
        let frame = Frame {
            kind,
            payload: payload.to_vec(),
        };
        exercise(&frame);
    }
}

/// Decodes `frame` both ways for [`fuzz_decode`]. The property under
/// test is only "never panics", but the outcomes pass through
/// `black_box` so the optimiser cannot prove the decodes dead and
/// elide the very code paths the fuzzer is here to walk.
fn exercise(frame: &Frame) {
    std::hint::black_box(Request::decode(frame).is_ok());
    std::hint::black_box(Response::decode(frame).is_ok());
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

    fn roundtrip_request(req: &Request) -> Request {
        let (kind, payload) = req.encode();
        let bytes = encode_frame(kind, &payload);
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        Request::decode(&frame).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let (kind, payload) = resp.encode();
        let bytes = encode_frame(kind, &payload);
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        Response::decode(&frame).unwrap()
    }

    /// Asserts that the frame kinds of `encoded` are exactly the kinds
    /// `decode` does not reject as unknown: a variant `decode` accepts
    /// cannot be missing from [`samples`] even if its slot was.
    fn assert_kinds_cover_decode<T>(
        encoded: impl Iterator<Item = u8>,
        decode: impl Fn(&Frame) -> Result<T, FrameError>,
    ) {
        let mut sampled: Vec<u8> = encoded.collect();
        sampled.sort_unstable();
        sampled.dedup();
        let decodable: Vec<u8> = (0..=u8::MAX)
            .filter(|&kind| {
                let frame = Frame {
                    kind,
                    payload: Vec::new(),
                };
                !matches!(decode(&frame), Err(FrameError::UnknownKind { .. }))
            })
            .collect();
        assert_eq!(sampled, decodable, "`samples` misses a decodable kind");
    }

    /// Each request variant's slot in the sample-list pin. Exhaustive:
    /// a new variant does not compile until it takes the next slot here
    /// — then raise the slot count in `requests_roundtrip` and add a
    /// sample to [`samples`].
    fn request_slot(req: &Request) -> usize {
        match req {
            Request::Ping => 0,
            Request::RangeQuery(_) => 1,
            Request::Stats(_) => 2,
            Request::Trace(_) => 3,
        }
    }

    /// As [`request_slot`], for replies.
    fn response_slot(resp: &Response) -> usize {
        match resp {
            Response::Pong => 0,
            Response::QueryOk(_) => 1,
            Response::StatsOk(_) => 2,
            Response::TraceOk(_) => 3,
            Response::Error(_) => 4,
        }
    }

    #[test]
    fn requests_roundtrip() {
        let requests = samples().0;
        let mut hit = [false; 4];
        for req in &requests {
            assert_eq!(&roundtrip_request(req), req);
            hit[request_slot(req)] = true;
        }
        assert_eq!(hit, [true; 4], "`samples` misses a request variant");
        assert_kinds_cover_decode(requests.iter().map(|r| r.encode().0), Request::decode);
    }

    #[test]
    fn zero_trace_id_in_query_context_is_rejected() {
        let q = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 60.0));
        let mut payload = Vec::new();
        put_cuboid(&mut payload, &q);
        put_u128(&mut payload, 0); // trace id zero is reserved for "untraced"
        put_u64(&mut payload, 7);
        let frame = Frame {
            kind: kind::RANGE_QUERY,
            payload,
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::BadPayload { .. })
        ));
    }

    #[test]
    fn trace_filter_rejects_non_finite_and_negative_thresholds() {
        for slow_ms in [f64::NAN, f64::INFINITY, -1.0] {
            let mut payload = Vec::new();
            put_f64(&mut payload, slow_ms);
            put_u32(&mut payload, 5);
            let frame = Frame {
                kind: kind::TRACE,
                payload,
            };
            assert!(matches!(
                Request::decode(&frame),
                Err(FrameError::BadPayload { .. })
            ));
        }
    }

    #[test]
    fn responses_roundtrip_bit_identically() {
        let responses = samples().1;
        let mut hit = [false; 5];
        for resp in &responses {
            assert_eq!(&roundtrip_response(resp), resp);
            hit[response_slot(resp)] = true;
        }
        assert_eq!(hit, [true; 5], "`samples` misses a reply variant");
        assert_kinds_cover_decode(responses.iter().map(|r| r.encode().0), Response::decode);
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        // Bad magic.
        let mut bytes = encode_frame(kind::PING, &[]);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::BadMagic)
        ));
        // Bad version.
        let mut bytes = encode_frame(kind::PING, &[]);
        bytes[4] = 99;
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::BadVersion { got: 99 })
        ));
        // Oversize claim.
        let mut bytes = encode_frame(kind::PING, &[]);
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::Oversize { .. })
        ));
        // Truncated payload.
        let bytes = encode_frame(kind::RANGE_QUERY, &[0_u8; 10]);
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::Truncated)
        ));
        // Trailing bytes.
        let bytes = encode_frame(kind::PING, &[1, 2, 3]);
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        assert!(matches!(Request::decode(&frame), Err(FrameError::Trailing)));
        // Non-finite coordinates.
        let mut payload = Vec::new();
        for _ in 0..6 {
            put_f64(&mut payload, f64::NAN);
        }
        let frame = Frame {
            kind: kind::RANGE_QUERY,
            payload,
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::BadPayload { .. })
        ));
        // Inverted bounds.
        let mut payload = Vec::new();
        for v in [1.0, 0.0, 0.0, 0.0, 1.0, 1.0] {
            put_f64(&mut payload, v);
        }
        let frame = Frame {
            kind: kind::RANGE_QUERY,
            payload,
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::BadPayload { .. })
        ));
    }

    /// Each code's slot in the [`ErrorCode::ALL`] pin; exhaustive, like
    /// [`request_slot`].
    fn error_code_slot(code: ErrorCode) -> usize {
        match code {
            ErrorCode::Malformed => 0,
            ErrorCode::BadVersion => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Storage => 4,
            ErrorCode::NoReplicas => 5,
            ErrorCode::NoSuchReplica => 6,
            ErrorCode::Internal => 7,
            ErrorCode::IdleTimeout => 8,
            ErrorCode::ShardUnavailable => 9,
            ErrorCode::ReplyTooLarge => 10,
        }
    }

    #[test]
    fn every_error_code_roundtrips_u16() {
        let mut hit = [false; 11];
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
            hit[error_code_slot(code)] = true;
        }
        assert_eq!(hit, [true; 11], "`ErrorCode::ALL` misses a code");
        assert_eq!(ErrorCode::from_u16(0), ErrorCode::Internal);
        assert_eq!(ErrorCode::from_u16(u16::MAX), ErrorCode::Internal);
    }

    #[test]
    fn fuzz_decode_survives_garbage_smoke() {
        fuzz_decode(&[]);
        fuzz_decode(b"BLOT");
        fuzz_decode(&encode_frame(kind::QUERY_OK, &[0xFF; 64]));
        let mut state = 0x9E37_79B9_u32;
        let mut bytes = vec![0_u8; 512];
        for b in &mut bytes {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            *b = (state & 0xFF) as u8;
        }
        fuzz_decode(&bytes);
    }
}
