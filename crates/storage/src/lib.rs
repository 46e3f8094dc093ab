//! Storage backends and simulated execution environments for BLOT.
//!
//! The paper evaluates BLOT systems in "two typical execution
//! environments": a local Hadoop cluster (each partition a file on HDFS)
//! and Amazon S3 + EMR (each partition an S3 object scanned by a
//! map-only MapReduce job). Neither is available here, so this crate
//! simulates both on top of *real* encode/decode work:
//!
//! * storage units hold real encoded bytes in a [`Backend`]
//!   (in-memory for tests, on-disk files for realism);
//! * an [`EnvProfile`] models the latency structure of each environment
//!   — per-task startup, per-unit open/locate latency, sequential
//!   transfer bandwidth, and a CPU speed factor;
//! * a [`ScanTask`](scan::ScanTask) really reads, decodes and filters
//!   the unit, charging *simulated milliseconds* = modelled I/O +
//!   measured decode CPU × the profile's CPU factor.
//!
//! Because decode CPU is measured for real, the per-encoding `ScanRate`
//! ordering of Table II (LZMA-class slowest, plain fastest; column
//! faster than row per byte scanned) *emerges* from the codecs instead
//! of being baked into constants — the calibration experiments of §V-B
//! measure it back out of the simulator exactly as the paper measures
//! its clusters.
//!
//! A query is the paper's "map-only MapReduce job … with each mapper
//! scanning exactly one of the involved partitions": the store submits
//! one [`run_scan`](scan::run_scan) closure per involved partition to
//! the shared [`ScanExecutor`] pool and sums the task times (what
//! Definition 7's `Cost` aggregates).
//!
//! # Example
//!
//! ```
//! use blot_codec::{Compression, EncodingScheme, Layout};
//! use blot_model::{Record, RecordBatch};
//! use blot_obs::SpanHandle;
//! use blot_storage::scan::{run_scan, ScanTask};
//! use blot_storage::{Backend, EnvProfile, MemBackend, UnitKey};
//!
//! let batch: RecordBatch =
//!     (0..500).map(|i| Record::new(i, i64::from(i), 121.0, 31.0)).collect();
//! let scheme = EncodingScheme::new(Layout::Row, Compression::Lzf);
//! let backend = MemBackend::new();
//! let key = UnitKey { replica: 0, partition: 0 };
//! backend.put(key, scheme.encode(&batch)).unwrap();
//!
//! let report = run_scan(
//!     &backend,
//!     &EnvProfile::local_cluster(),
//!     &ScanTask { key, scheme, range: None },
//!     &SpanHandle::detached(),
//! )
//! .unwrap();
//! assert_eq!(report.records_scanned, 500);
//! assert!(report.sim_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No silently dropped `Result` (DESIGN.md §6b): handle it, or `#[allow]`
// the site with the reason the loss is harmless. Tests opt out, as they
// do for the panic lints in clippy.toml.
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

mod backend;
mod env;
mod error;
pub mod pool;
pub mod scan;
pub mod sync;

pub use backend::{Backend, FailingBackend, FailureMode, FileBackend, MemBackend, UnitKey};
pub use env::EnvProfile;
pub use error::StorageError;
pub use pool::ScanExecutor;
