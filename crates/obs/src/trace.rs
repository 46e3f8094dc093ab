//! Structured query tracing: span trees into a bounded flight recorder.
//!
//! A [`TraceSpan`] is an RAII wall-time measurement like [`crate::Span`],
//! but instead of folding into a histogram it records a *structured*
//! [`SpanRecord`] — trace id, span id, parent link, name, start/duration
//! in microseconds, simulated milliseconds, and up to four static
//! key/value annotations — into a [`FlightRecorder`]: a bounded ring
//! buffer that keeps the most recent spans and evicts the oldest.
//!
//! # Design rules (mirroring the metrics kit)
//!
//! * **Lock-free recording.** The workspace forbids `unsafe`, so each
//!   ring slot is a seqlock over plain `AtomicU64` words: a writer
//!   claims a ticket with one `fetch_add`, marks the slot's sequence
//!   odd, stores the record's words, and marks it even. No mutex is
//!   ever taken on the record path.
//! * **Tear-free snapshots.** A reader validates the slot sequence
//!   before and after copying the words; a torn read (writer wrapped
//!   the ring mid-copy) is detected and the slot skipped. Every record
//!   a snapshot returns was written in full. The snapshot is a sample,
//!   not a consistent cut: concurrent writers may evict slots while it
//!   runs.
//! * **Static vocabulary.** Span names and annotation keys are [`Name`]
//!   indices into a fixed table ([`names`]), so a record is plain
//!   numbers end to end — which is what lets it live in atomic words.
//! * **Compiled-out mode.** With the `off` feature every handle here is
//!   a ZST and every record call a no-op; only the plain-data id types
//!   ([`TraceId`], [`SpanId`], [`SpanContext`]) stay real, because the
//!   wire protocol carries them regardless of how the peer was built.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

use std::fmt;
use std::fmt::Write as _;
#[cfg(not(feature = "off"))]
use std::sync::atomic::{fence, AtomicU64, Ordering};
#[cfg(feature = "off")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "off"))]
use std::sync::Arc;
#[cfg(not(feature = "off"))]
use std::time::Instant;

/// Maximum static key/value annotations per span.
pub const MAX_NOTES: usize = 4;

/// The fixed span-name / annotation-key vocabulary. A [`Name`] is an
/// index into this table; keeping names numeric is what allows the
/// flight recorder to store records as atomic words without `unsafe`.
const VOCAB: &[&str] = &[
    "store.query",      // 0
    "route",            // 1
    "merge",            // 2
    "scan.unit",        // 3
    "unit.decode",      // 4
    "server.request",   // 5
    "server.admission", // 6
    "server.batch",     // 7
    "replica",          // 8
    "units",            // 9
    "units_skipped",    // 10
    "bytes",            // 11
    "bytes_skipped",    // 12
    "records",          // 13
    "batch_size",       // 14
    "drift_permille",   // 15
    "failed_over",      // 16
    "partition",        // 17
    "queue_us",         // 18
    "router.query",     // 19
    "router.shard",     // 20
    "shard",            // 21
    "fanout",           // 22
];

/// A span name or annotation key: an index into the static vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(u16);

impl Name {
    /// The vocabulary string this name stands for.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        VOCAB.get(usize::from(self.0)).copied().unwrap_or("?")
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The span-name and annotation-key constants (the trace schema).
pub mod names {
    use super::Name;

    /// Root span of one store query.
    pub const QUERY: Name = Name(0);
    /// Replica choice + task planning stage, zone-map pruning against
    /// the in-memory partition index included.
    pub const ROUTE: Name = Name(1);
    /// Result assembly: merge per-unit outputs, drift accounting (notes
    /// [`DRIFT_PERMILLE`]).
    pub const MERGE: Name = Name(2);
    /// One storage unit's scan task (worker thread).
    pub const SCAN_UNIT: Name = Name(3);
    /// Decode + filter of one unit's payload.
    pub const UNIT_DECODE: Name = Name(4);
    /// Server-side root of one remote request.
    pub const SERVER_REQUEST: Name = Name(5);
    /// Admission-queue wait: submit → batch drain.
    pub const SERVER_ADMISSION: Name = Name(6);
    /// Batch residency: drain → response slot filled.
    pub const SERVER_BATCH: Name = Name(7);
    /// Key: replica id routed to.
    pub const REPLICA: Name = Name(8);
    /// Key: units involved (zone-map-skipped ones included).
    pub const UNITS: Name = Name(9);
    /// Key: units skipped via zone maps.
    pub const UNITS_SKIPPED: Name = Name(10);
    /// Key: bytes transferred.
    pub const BYTES: Name = Name(11);
    /// Key: payload bytes pruning avoided.
    pub const BYTES_SKIPPED: Name = Name(12);
    /// Key: records matched.
    pub const RECORDS: Name = Name(13);
    /// Key: queries in the same server batch.
    pub const BATCH_SIZE: Name = Name(14);
    /// Key: predicted/measured cost ratio × 1000, rounded; 1000 when
    /// every unit was pruned.
    pub const DRIFT_PERMILLE: Name = Name(15);
    /// Key: replicas failed over before this one answered.
    pub const FAILED_OVER: Name = Name(16);
    /// Key: partition index of a scanned unit.
    pub const PARTITION: Name = Name(17);
    /// Key: microseconds a request waited in the admission queue.
    pub const QUEUE_US: Name = Name(18);
    /// Coordinator-side root of one scatter-gather query.
    pub const ROUTER_QUERY: Name = Name(19);
    /// One shard's leg of a scatter-gather query (dispatch → reply).
    pub const ROUTER_SHARD: Name = Name(20);
    /// Key: shard id a sub-query was routed to.
    pub const SHARD: Name = Name(21);
    /// Key: shards a query fanned out to.
    pub const FANOUT: Name = Name(22);
}

/// 128-bit trace identifier. Plain data — real in every build, because
/// the wire protocol carries it even when recording is compiled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Generates a fresh, non-zero trace id from the wall clock and a
    /// process-wide counter (no OS randomness needed).
    #[must_use]
    pub fn generate() -> Self {
        let a = next_entropy();
        let b = next_entropy();
        Self((u128::from(a) << 64 | u128::from(b)).max(1))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// 64-bit span identifier, unique within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Generates a fresh, non-zero span id.
    #[must_use]
    pub fn generate() -> Self {
        Self(next_entropy().max(1))
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A position in a trace: the id pair children parent themselves under.
/// This is what crosses thread and wire boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The trace every descendant span shares.
    pub trace: TraceId,
    /// The span new children name as their parent.
    pub span: SpanId,
}

impl SpanContext {
    /// A fresh root context (new trace, new root span id). Used by
    /// clients that start a trace without owning a recorder.
    #[must_use]
    pub fn fresh() -> Self {
        Self {
            trace: TraceId::generate(),
            span: SpanId::generate(),
        }
    }
}

/// Splitmix64 round: the id generator's mixer.
const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One 64-bit id word: wall-clock nanos mixed with a process counter,
/// so ids are unique within a process and overwhelmingly likely unique
/// across the client/server pair of one request.
fn next_entropy() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0x5EED);
    let tick = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
        .unwrap_or(0);
    splitmix64(nanos ^ tick.rotate_left(17)) ^ splitmix64(tick)
}

/// One finished span, as stored in (and snapshotted from) the recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span id; `None` for trace roots.
    pub parent: Option<SpanId>,
    /// Span name (vocabulary index).
    pub name: Name,
    /// Microseconds from the recorder's epoch to the span's start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Simulated milliseconds attributed to the span (0 if none).
    pub sim_ms: f64,
    notes: [(Name, u64); MAX_NOTES],
    n_notes: u8,
}

impl SpanRecord {
    /// The span's static key/value annotations.
    #[must_use]
    pub fn notes(&self) -> &[(Name, u64)] {
        let n = usize::from(self.n_notes).min(MAX_NOTES);
        self.notes.get(..n).unwrap_or(&[])
    }

    /// Looks up one annotation by key.
    #[must_use]
    pub fn note_value(&self, key: Name) -> Option<u64> {
        self.notes()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }
}

/// Words per ring slot: the fixed atomic-word encoding of a
/// [`SpanRecord`]. Layout: trace hi, trace lo, span, parent,
/// name|n_notes, note keys (4×16 packed), note values ×4, start_us,
/// dur_us, sim_ms bits.
#[cfg(not(feature = "off"))]
const SLOT_WORDS: usize = 13;

#[cfg(not(feature = "off"))]
#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in progress; even = `2·ticket+2`
    /// of the last completed write.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

#[cfg(not(feature = "off"))]
impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[cfg(not(feature = "off"))]
fn encode_words(rec: &SpanRecord) -> [u64; SLOT_WORDS] {
    let mut keys = 0u64;
    for (i, (k, _)) in rec.notes.iter().enumerate() {
        keys |= u64::from(k.0) << (16 * i);
    }
    let [n0, n1, n2, n3] = rec.notes;
    [
        u64::try_from(rec.trace.0 >> 64).unwrap_or(0),
        u64::try_from(rec.trace.0 & u128::from(u64::MAX)).unwrap_or(0),
        rec.span.0,
        rec.parent.map_or(0, |p| p.0),
        u64::from(rec.name.0) | (u64::from(rec.n_notes) << 16),
        keys,
        n0.1,
        n1.1,
        n2.1,
        n3.1,
        rec.start_us,
        rec.dur_us,
        rec.sim_ms.to_bits(),
    ]
}

#[cfg(not(feature = "off"))]
#[allow(clippy::cast_possible_truncation)] // masked 16-bit extractions
fn decode_words(w: &[u64; SLOT_WORDS]) -> SpanRecord {
    let [hi, lo, span, parent, tag, keys, v0, v1, v2, v3, start_us, dur_us, sim_bits] = *w;
    let values = [v0, v1, v2, v3];
    let mut notes = [(Name(0), 0u64); MAX_NOTES];
    for (i, (slot, value)) in notes.iter_mut().zip(values).enumerate() {
        *slot = (Name((keys >> (16 * i) & 0xFFFF) as u16), value);
    }
    SpanRecord {
        trace: TraceId(u128::from(hi) << 64 | u128::from(lo)),
        span: SpanId(span),
        parent: (parent != 0).then_some(SpanId(parent)),
        name: Name((tag & 0xFFFF) as u16),
        start_us,
        dur_us,
        sim_ms: f64::from_bits(sim_bits),
        notes,
        n_notes: (tag >> 16 & 0xFF) as u8,
    }
}

#[cfg(not(feature = "off"))]
#[derive(Debug)]
struct Inner {
    epoch: Instant,
    /// Total records ever claimed; `head % slots.len()` is the next slot.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

#[cfg(not(feature = "off"))]
impl Inner {
    fn record(&self, rec: &SpanRecord) {
        let len = self.slots.len();
        if len == 0 {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = usize::try_from(ticket % (len as u64)).unwrap_or(0);
        let Some(slot) = self.slots.get(idx) else {
            return;
        };
        let words = encode_words(rec);
        slot.seq
            .store(ticket.wrapping_mul(2).wrapping_add(1), Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq
            .store(ticket.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<(u64, SpanRecord)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // Retry a torn slot a couple of times, then give it up: a
            // slot being rewritten that fast is being evicted anyway.
            for _ in 0..3 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 % 2 == 1 {
                    break;
                }
                let mut words = [0u64; SLOT_WORDS];
                for (word, cell) in words.iter_mut().zip(slot.words.iter()) {
                    *word = cell.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) == s1 {
                    out.push(((s1 - 2) / 2, decode_words(&words)));
                    break;
                }
            }
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, rec)| rec).collect()
    }
}

/// A bounded, lock-free ring buffer of finished spans ("flight
/// recorder"): the most recent `capacity` spans are retained, the
/// oldest evicted. Cloning produces another handle to the same ring.
/// With the `off` feature this is a ZST and recording a no-op.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    #[cfg(not(feature = "off"))]
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// Creates a recorder retaining the most recent `capacity` spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        #[cfg(not(feature = "off"))]
        {
            Self {
                inner: Some(Arc::new(Inner {
                    epoch: Instant::now(),
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| Slot::new()).collect(),
                })),
            }
        }
        #[cfg(feature = "off")]
        {
            let _ = capacity;
            Self {}
        }
    }

    /// A recorder that drops everything (the default for services that
    /// never attached one).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Starts a new root span: fresh trace id, no parent.
    pub fn span(&self, name: Name) -> TraceSpan {
        self.start_span(name, TraceId::generate(), None)
    }

    /// Starts a span under an externally supplied context (a client's
    /// wire-propagated trace, or a handle from another thread).
    pub fn span_under(&self, ctx: SpanContext, name: Name) -> TraceSpan {
        self.start_span(name, ctx.trace, Some(ctx.span))
    }

    fn start_span(&self, name: Name, trace: TraceId, parent: Option<SpanId>) -> TraceSpan {
        #[cfg(not(feature = "off"))]
        {
            TraceSpan {
                inner: self.inner.clone(),
                trace,
                span: SpanId::generate(),
                parent,
                name,
                started: Instant::now(),
                start_us: self.inner.as_ref().map_or(0, |i| elapsed_us(i.epoch)),
                sim_ms: 0.0,
                notes: [(Name(0), 0); MAX_NOTES],
                n_notes: 0,
            }
        }
        #[cfg(feature = "off")]
        {
            let _ = (name, trace, parent);
            TraceSpan {}
        }
    }

    /// Copies out every fully written record, oldest first. Each record
    /// is tear-free; the set is a sample, not a consistent cut.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        #[cfg(not(feature = "off"))]
        {
            self.inner
                .as_ref()
                .map(|i| i.snapshot())
                .unwrap_or_default()
        }
        #[cfg(feature = "off")]
        {
            Vec::new()
        }
    }

    /// Total spans ever recorded (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        #[cfg(not(feature = "off"))]
        {
            self.inner
                .as_ref()
                .map_or(0, |i| i.head.load(Ordering::Relaxed))
        }
        #[cfg(feature = "off")]
        {
            0
        }
    }

    /// Ring capacity (0 when disabled or compiled out).
    #[must_use]
    pub fn capacity(&self) -> usize {
        #[cfg(not(feature = "off"))]
        {
            self.inner.as_ref().map_or(0, |i| i.slots.len())
        }
        #[cfg(feature = "off")]
        {
            0
        }
    }
}

#[cfg(not(feature = "off"))]
fn elapsed_us(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A live span: records a [`SpanRecord`] into its recorder when dropped
/// (or [`TraceSpan::finish`]ed). ZST with the `off` feature.
#[must_use = "a trace span records on drop — bind it (`let _span = …`) for the scope to measure"]
#[derive(Debug)]
pub struct TraceSpan {
    #[cfg(not(feature = "off"))]
    inner: Option<Arc<Inner>>,
    #[cfg(not(feature = "off"))]
    trace: TraceId,
    #[cfg(not(feature = "off"))]
    span: SpanId,
    #[cfg(not(feature = "off"))]
    parent: Option<SpanId>,
    #[cfg(not(feature = "off"))]
    name: Name,
    #[cfg(not(feature = "off"))]
    started: Instant,
    #[cfg(not(feature = "off"))]
    start_us: u64,
    #[cfg(not(feature = "off"))]
    sim_ms: f64,
    #[cfg(not(feature = "off"))]
    notes: [(Name, u64); MAX_NOTES],
    #[cfg(not(feature = "off"))]
    n_notes: u8,
}

impl TraceSpan {
    /// This span's position in its trace — what children parent under.
    /// `None` when recording is compiled out.
    #[must_use]
    pub fn context(&self) -> Option<SpanContext> {
        #[cfg(not(feature = "off"))]
        {
            Some(SpanContext {
                trace: self.trace,
                span: self.span,
            })
        }
        #[cfg(feature = "off")]
        {
            None
        }
    }

    /// A cheap, cloneable, `Send` handle for opening children of this
    /// span from other threads (scan-pool workers).
    #[must_use]
    pub fn handle(&self) -> SpanHandle {
        #[cfg(not(feature = "off"))]
        {
            SpanHandle {
                inner: self.inner.clone(),
                ctx: SpanContext {
                    trace: self.trace,
                    span: self.span,
                },
            }
        }
        #[cfg(feature = "off")]
        {
            SpanHandle {}
        }
    }

    /// Opens a child span in the same recorder.
    pub fn child(&self, name: Name) -> TraceSpan {
        self.handle().child(name)
    }

    /// Attaches a static key/value annotation (first [`MAX_NOTES`] win).
    pub fn note(&mut self, key: Name, value: u64) {
        #[cfg(not(feature = "off"))]
        {
            let n = usize::from(self.n_notes);
            if let Some(slot) = self.notes.get_mut(n) {
                *slot = (key, value);
                self.n_notes = self.n_notes.saturating_add(1);
            }
        }
        #[cfg(feature = "off")]
        {
            let _ = (key, value);
        }
    }

    /// Attributes simulated milliseconds to the span.
    pub fn set_sim_ms(&mut self, ms: f64) {
        #[cfg(not(feature = "off"))]
        {
            self.sim_ms = ms;
        }
        #[cfg(feature = "off")]
        {
            let _ = ms;
        }
    }

    /// Ends the span now (alias for dropping it).
    pub fn finish(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        #[cfg(not(feature = "off"))]
        if let Some(inner) = &self.inner {
            inner.record(&SpanRecord {
                trace: self.trace,
                span: self.span,
                parent: self.parent,
                name: self.name,
                start_us: self.start_us,
                dur_us: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
                sim_ms: self.sim_ms,
                notes: self.notes,
                n_notes: self.n_notes,
            });
        }
    }
}

/// A cloneable, `Send` handle at a fixed position in a trace: what a
/// query's scan closures capture so per-unit spans parent correctly
/// across the scan pool. ZST with the `off` feature.
#[derive(Debug, Clone, Default)]
pub struct SpanHandle {
    #[cfg(not(feature = "off"))]
    inner: Option<Arc<Inner>>,
    #[cfg(not(feature = "off"))]
    ctx: SpanContext,
}

impl Default for SpanContext {
    fn default() -> Self {
        Self {
            trace: TraceId(0),
            span: SpanId(0),
        }
    }
}

impl SpanHandle {
    /// A handle that records nowhere (placeholder for untraced work).
    #[must_use]
    pub fn detached() -> Self {
        Self::default()
    }

    /// Opens a child span under this handle's position.
    pub fn child(&self, name: Name) -> TraceSpan {
        #[cfg(not(feature = "off"))]
        {
            TraceSpan {
                inner: self.inner.clone(),
                trace: self.ctx.trace,
                span: SpanId::generate(),
                parent: Some(self.ctx.span),
                name,
                started: Instant::now(),
                start_us: self.inner.as_ref().map_or(0, |i| elapsed_us(i.epoch)),
                sim_ms: 0.0,
                notes: [(Name(0), 0); MAX_NOTES],
                n_notes: 0,
            }
        }
        #[cfg(feature = "off")]
        {
            let _ = name;
            TraceSpan {}
        }
    }

    /// The context this handle points at (`None` when compiled out or
    /// detached).
    #[must_use]
    pub fn context(&self) -> Option<SpanContext> {
        #[cfg(not(feature = "off"))]
        {
            (self.ctx.trace.0 != 0 || self.inner.is_some()).then_some(self.ctx)
        }
        #[cfg(feature = "off")]
        {
            None
        }
    }
}

// ---------------------------------------------------------------------
// The exporter and the trace filters. Always compiled (they operate on
// snapshot data, which is simply empty in an `off` build), shared by the
// server's Trace reply, the CLI and the tests. There is one export
// shape, the span-JSON array; rendering it for Chrome or a terminal is
// the CLI's job.

fn push_notes_json(out: &mut String, rec: &SpanRecord) {
    out.push_str(",\"notes\":{");
    for (i, (k, v)) in rec.notes().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push('}');
}

/// Renders records as a JSON array (one object per span), the shape the
/// server's `Trace` reply carries.
#[must_use]
pub fn records_to_json(records: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"sim_ms\":{}",
            rec.trace,
            rec.span,
            rec.parent
                .map_or_else(|| "null".to_owned(), |p| format!("\"{p}\"")),
            rec.name,
            rec.start_us,
            rec.dur_us,
            if rec.sim_ms.is_finite() { rec.sim_ms } else { 0.0 },
        );
        push_notes_json(&mut out, rec);
        out.push('}');
    }
    out.push(']');
    out
}

/// Keeps only traces in which at least one span lasted `slow_ms`
/// milliseconds (wall time) or more. Whole traces survive or drop
/// together — a slow scan keeps its fast siblings for context.
/// `slow_ms <= 0` keeps everything.
#[must_use]
pub fn filter_slow(records: &[SpanRecord], slow_ms: f64) -> Vec<SpanRecord> {
    if slow_ms <= 0.0 {
        return records.to_vec();
    }
    let mut slow: Vec<TraceId> = Vec::new();
    for rec in records {
        #[allow(clippy::cast_precision_loss)]
        let dur_ms = rec.dur_us as f64 / 1e3;
        if dur_ms >= slow_ms && !slow.contains(&rec.trace) {
            slow.push(rec.trace);
        }
    }
    records
        .iter()
        .filter(|r| slow.contains(&r.trace))
        .copied()
        .collect()
}

/// Keeps the spans of the `last` most recent distinct traces, recency
/// judged by each trace's latest span start. `last == 0` keeps
/// everything.
#[must_use]
pub fn filter_last(records: &[SpanRecord], last: usize) -> Vec<SpanRecord> {
    if last == 0 {
        return records.to_vec();
    }
    let mut latest: Vec<(TraceId, u64)> = Vec::new();
    for rec in records {
        match latest.iter_mut().find(|(t, _)| *t == rec.trace) {
            Some((_, at)) => *at = (*at).max(rec.start_us),
            None => latest.push((rec.trace, rec.start_us)),
        }
    }
    latest.sort_by_key(|&(_, at)| std::cmp::Reverse(at));
    latest.truncate(last);
    records
        .iter()
        .filter(|r| latest.iter().any(|&(t, _)| t == r.trace))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_unique_and_names_resolve() {
        for (i, a) in VOCAB.iter().enumerate() {
            for b in VOCAB.get(i + 1..).unwrap_or(&[]) {
                assert_ne!(a, b, "duplicate vocabulary entry {a}");
            }
        }
        assert_eq!(names::QUERY.as_str(), "store.query");
        assert_eq!(names::QUEUE_US.as_str(), "queue_us");
        assert_eq!(Name(u16::MAX).as_str(), "?");
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a.0, 0);
        assert_ne!(a, b);
        assert_ne!(SpanId::generate(), SpanId::generate());
        let ctx = SpanContext::fresh();
        assert_ne!(ctx.trace.0, 0);
        assert_ne!(ctx.span.0, 0);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn spans_record_on_drop_with_parent_links() {
        let rec = FlightRecorder::new(16);
        let mut root = rec.span(names::QUERY);
        root.note(names::REPLICA, 3);
        let child = root.child(names::SCAN_UNIT);
        let grandchild = child.handle().child(names::UNIT_DECODE);
        grandchild.finish();
        child.finish();
        let root_ctx = root.context().expect("enabled build");
        root.finish();
        let records = rec.snapshot();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.trace == root_ctx.trace));
        let decode = records
            .iter()
            .find(|r| r.name == names::UNIT_DECODE)
            .expect("decode span");
        let unit = records
            .iter()
            .find(|r| r.name == names::SCAN_UNIT)
            .expect("unit span");
        assert_eq!(decode.parent, Some(unit.span));
        assert_eq!(unit.parent, Some(root_ctx.span));
        let root_rec = records
            .iter()
            .find(|r| r.name == names::QUERY)
            .expect("root span");
        assert_eq!(root_rec.parent, None);
        assert_eq!(root_rec.note_value(names::REPLICA), Some(3));
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn ring_evicts_oldest_and_keeps_order() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            let mut s = rec.span(names::SCAN_UNIT);
            s.note(names::PARTITION, i);
            s.finish();
        }
        let records = rec.snapshot();
        assert_eq!(records.len(), 4);
        assert_eq!(rec.recorded(), 10);
        let parts: Vec<u64> = records
            .iter()
            .filter_map(|r| r.note_value(names::PARTITION))
            .collect();
        assert_eq!(parts, vec![6, 7, 8, 9]);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn adopted_context_joins_the_existing_trace() {
        let rec = FlightRecorder::new(8);
        let client = SpanContext::fresh();
        let span = rec.span_under(client, names::SERVER_REQUEST);
        span.finish();
        let records = rec.snapshot();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].trace, client.trace);
        assert_eq!(records[0].parent, Some(client.span));
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn concurrent_recording_never_tears_records() {
        let rec = FlightRecorder::new(32);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let mut s = rec.span(names::SCAN_UNIT);
                    // Both notes carry the same value: a torn record
                    // would disagree with itself.
                    s.note(names::BYTES, t * 1000 + i);
                    s.note(names::RECORDS, t * 1000 + i);
                    s.finish();
                    if i % 16 == 0 {
                        let _ = rec.snapshot();
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("recorder thread");
        }
        assert_eq!(rec.recorded(), 800);
        for r in rec.snapshot() {
            assert_eq!(r.note_value(names::BYTES), r.note_value(names::RECORDS));
            assert_eq!(r.name, names::SCAN_UNIT);
            assert_ne!(r.trace.0, 0);
        }
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = FlightRecorder::disabled();
        rec.span(names::QUERY).finish();
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.capacity(), 0);
    }

    #[cfg(feature = "off")]
    #[test]
    fn off_build_compiles_trace_handles_to_zsts() {
        assert_eq!(std::mem::size_of::<FlightRecorder>(), 0);
        assert_eq!(std::mem::size_of::<TraceSpan>(), 0);
        assert_eq!(std::mem::size_of::<SpanHandle>(), 0);
        let rec = FlightRecorder::new(1024);
        let span = rec.span(names::QUERY);
        assert!(span.context().is_none());
        span.finish();
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn exporters_emit_wellformed_json() {
        let rec = FlightRecorder::new(8);
        let mut root = rec.span(names::QUERY);
        root.note(names::UNITS, 2);
        root.set_sim_ms(1.5);
        root.child(names::MERGE).finish();
        root.finish();
        let records = rec.snapshot();
        let json = records_to_json(&records);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        if crate::enabled() {
            assert!(json.contains("\"name\":\"store.query\""), "{json}");
        } else {
            assert_eq!(json, "[]");
        }
    }

    /// A hand-built record for the filter tests (durations under test
    /// control, unlike recorder-produced wall times).
    fn record(trace: u128, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            span: SpanId::generate(),
            parent: None,
            name: names::QUERY,
            start_us,
            dur_us,
            sim_ms: 0.0,
            notes: [(Name(0), 0); MAX_NOTES],
            n_notes: 0,
        }
    }

    #[test]
    fn filter_slow_keeps_whole_traces_above_threshold() {
        let records = vec![
            record(1, 0, 50),      // trace 1: fast sibling...
            record(1, 10, 12_000), // ...but one 12 ms span makes it slow
            record(2, 20, 900),    // trace 2: all spans under 10 ms
        ];
        let slow = filter_slow(&records, 10.0);
        assert_eq!(slow.len(), 2);
        assert!(slow.iter().all(|r| r.trace == TraceId(1)));
        assert_eq!(filter_slow(&records, 0.0).len(), 3);
    }

    #[test]
    fn filter_last_keeps_most_recent_traces() {
        let records = vec![
            record(1, 0, 10),
            record(2, 100, 10),
            record(1, 250, 10), // trace 1's latest span is newest overall
            record(3, 200, 10),
        ];
        let last = filter_last(&records, 2);
        assert_eq!(last.len(), 3);
        assert!(last
            .iter()
            .all(|r| r.trace == TraceId(1) || r.trace == TraceId(3)));
        assert_eq!(filter_last(&records, 0).len(), 4);
        assert_eq!(filter_last(&records, 10).len(), 4);
    }
}
