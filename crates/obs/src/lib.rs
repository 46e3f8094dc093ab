//! blot-obs — the observability layer of the BLOT store.
//!
//! A dependency-free, std-only metrics kit: the rest of the workspace
//! instruments its hot paths with handles from a [`MetricsRegistry`]
//! and never pays more than a relaxed atomic per event.
//!
//! * [`Counter`] / [`Gauge`] — monotone and signed event counts;
//! * [`Histogram`] — fixed-bucket log-scale value distribution with a
//!   lock-free record path and tear-free snapshots;
//! * [`Span`] — RAII wall-time measurement into a histogram
//!   (monotonic [`std::time::Instant`] timing);
//! * [`MetricsRegistry`] — names instruments and produces [`Snapshot`]s
//!   with text-table and JSON rendering;
//! * [`trace`] — structured query tracing: [`TraceSpan`] trees with
//!   wire-propagable [`SpanContext`]s, recorded into a bounded
//!   [`FlightRecorder`] ring with text / JSON / Chrome `trace_event`
//!   exporters.
//!
//! # Design rules
//!
//! * **Lock-free recording.** Registration (`registry.counter("…")`)
//!   takes a mutex; recording (`c.inc()`, `h.record(x)`) is relaxed
//!   atomics only. Callers fetch handles once, at construction, and
//!   clone them into closures — handles are `Arc`-backed and cheap.
//! * **Tear-free snapshots.** A histogram's count is *derived* from its
//!   bucket counts at snapshot time, so a snapshot taken mid-record can
//!   never report a count that disagrees with its buckets.
//! * **Compiled-out mode.** With the `off` cargo feature every handle
//!   is zero-sized and every record call a no-op; [`enabled`] reports
//!   which build this is. `cargo xtask metrics-overhead` compares the
//!   two builds and fails if instrumentation costs more than 5%.

#![warn(missing_docs)]

mod counter;
mod export;
mod histogram;
mod registry;
mod router;
mod server;
mod span;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use histogram::{bucket_lower_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{MetricsRegistry, Snapshot};
pub use router::RouterMetrics;
pub use server::ServerMetrics;
pub use span::Span;
pub use trace::{
    names, FlightRecorder, Name, SpanContext, SpanHandle, SpanId, SpanRecord, TraceId, TraceSpan,
};

/// True when the record path is compiled in (the `off` feature is not
/// active). The overhead-guard binary prints this next to its timings
/// so the two builds cannot be confused.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(not(feature = "off"))
}
