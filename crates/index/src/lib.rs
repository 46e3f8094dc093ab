//! Spatio-temporal partitioning for BLOT systems.
//!
//! §II-B of the paper: a BLOT system splits the dataset into partitions
//! using the core attributes — "data are first partitioned by location
//! and then further partitioned by time", with equal-sized partitions
//! (in record count) produced by a k-d tree that "recursively decomposes
//! the space by alternatively using each space dimension" (§V-A).
//!
//! This crate provides:
//!
//! * [`SchemeSpec`] — the shape of a partitioning scheme: number of
//!   spatial cells (a power of 4) × number of temporal slices per cell
//!   (a power of 2). [`SchemeSpec::paper_grid`] enumerates the 25
//!   schemes of the paper's evaluation (`4²..4⁶ × 2⁴..2⁸`).
//! * [`PartitioningScheme`] — a built scheme: the k-d tree over space,
//!   per-cell temporal quantile boundaries, and the resulting
//!   [`Partition`] list with record counts.
//! * The *partitioning index* (§II-B): [`PartitioningScheme::involved`]
//!   returns the partitions whose range intersects a query range by
//!   walking the k-d tree rather than scanning all partitions.
//!
//! Schemes are built from a *sample* of the data; boundaries are
//! quantiles, so the same scheme applied to the full dataset keeps
//! partitions near-equal in size (the paper's non-skew assumption,
//! §IV-A).
//!
//! # Example
//!
//! ```
//! use blot_geo::{Cuboid, Point, QuerySize};
//! use blot_index::{PartitioningScheme, SchemeSpec};
//! use blot_model::{Record, RecordBatch};
//!
//! let sample: RecordBatch = (0..4_000)
//!     .map(|i| Record::new(i % 8, i64::from(i), 120.0 + f64::from(i % 100) * 0.02, 31.0))
//!     .collect();
//! let universe = Cuboid::new(Point::new(120.0, 30.0, 0.0), Point::new(122.0, 32.0, 4_000.0));
//! let scheme = PartitioningScheme::build(&sample, universe, SchemeSpec::new(16, 4));
//! assert_eq!(scheme.len(), 64);
//!
//! // The partitioning index: which partitions does a query touch?
//! let q = Cuboid::from_centroid(universe.centroid(), QuerySize::new(0.5, 0.5, 500.0));
//! let involved = scheme.involved(&q);
//! assert!(!involved.is_empty() && involved.len() < scheme.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No silently dropped `Result` (DESIGN.md §6b): handle it, or `#[allow]`
// the site with the reason the loss is harmless. Tests opt out, as they
// do for the panic lints in clippy.toml.
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

mod grid;
mod json;
mod partition;
mod scheme;

pub use grid::{skew, GridScheme};
pub use partition::Partition;
pub use scheme::{PartitioningScheme, SchemeSpec, UnknownPartition};
