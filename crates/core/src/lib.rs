//! The BLOT diverse-replica store — the paper's primary contribution.
//!
//! This crate assembles the substrates (`blot-geo`, `blot-model`,
//! `blot-codec`, `blot-index`, `blot-storage`, `blot-mip`) into the
//! system of *Exploring the Use of Diverse Replicas for Big Location
//! Tracking Data* (Ding et al., ICDCS 2014):
//!
//! * [`query`] — grouped queries `⟨W, H, T⟩`, weighted workloads, and
//!   the paper's synthetic evaluation workload;
//! * [`replica`] — replica configurations (partitioning spec × encoding
//!   scheme) and the candidate grid `R_C` (`m = m_P · m_E`);
//! * [`cost`] — the query cost model of §IV: per-partition cost
//!   `|D(p)|/ScanRate + ExtraTime` (Eq. 6), replica-level cost (Eq. 7),
//!   the geometric expected-involvement count for grouped queries
//!   (Eq. 11–12), and the calibration procedure of §V-B that measures
//!   `ScanRate`/`ExtraTime` by linear regression over scan timings;
//! * [`select`] — the replica selection problem of §III: exact 0-1 MIP
//!   (Eq. 1–5), the greedy Algorithm 1, dominance pruning, and k-means
//!   workload grouping;
//! * [`store`] — an executable BLOT store: builds physical replicas,
//!   routes each query to the estimated-cheapest replica, runs map-only
//!   scan jobs, and repairs damaged units from *any* other replica
//!   (diverse replicas "can recover each other … because they share the
//!   same logical view", §II-E);
//! * [`obs`] — store metrics and cost-model drift accounting: every
//!   query records predicted vs. measured cost, and [`obs::DriftReport`]
//!   flags encoding schemes whose calibration no longer holds.
//!
//! # Quick start
//!
//! ```
//! use blot_core::prelude::*;
//! use blot_storage::MemBackend;
//! use blot_tracegen::FleetConfig;
//!
//! // 1. Data + universe.
//! let config = FleetConfig::small();
//! let (data, universe) = (config.generate(), config.universe());
//!
//! // 2. Candidate replicas: partitioning specs × encoding schemes.
//! let candidates = ReplicaConfig::grid(
//!     &SchemeSpec::small_grid(),
//!     &EncodingScheme::all(),
//! );
//!
//! // 3. Calibrate the cost model in the simulated local cluster.
//! let env = EnvProfile::local_cluster();
//! let model = CostModel::calibrate(&env, &data, 0xC0FFEE);
//!
//! // 4. Estimate the workload × candidate cost matrix and pick replicas.
//! let workload = Workload::paper_synthetic(&universe);
//! let matrix = CostMatrix::estimate(&model, &workload, &candidates, &data, universe);
//! let budget = 3.0 * matrix.cheapest_storage();
//! let selection = select_greedy(&matrix, budget);
//!
//! // 5. Build the selected replicas and serve a query.
//! let mut store = BlotStore::new(MemBackend::new(), env, universe, model);
//! for &idx in &selection.chosen {
//!     store.build_replica(&data, candidates[idx]).unwrap();
//! }
//! let q = Cuboid::from_centroid(universe.centroid(), QuerySize::new(0.4, 0.4, 1800.0));
//! let result = store.query(&q).unwrap();
//! assert_eq!(result.records.len(), data.count_in_range(&q));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No silently dropped `Result` (DESIGN.md §6b): handle it, or `#[allow]`
// the site with the reason the loss is harmless. Tests opt out, as they
// do for the panic lints in clippy.toml.
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod cost;
mod error;
pub mod obs;
pub mod query;
pub mod replica;
pub mod select;
pub mod store;
pub mod units;

pub use error::CoreError;

/// Convenient re-exports of the types most applications need.
pub mod prelude {
    pub use crate::cost::{CostModel, CostParams};
    pub use crate::obs::{DriftBand, DriftReport, StoreMetrics};
    pub use crate::query::{GroupedQuery, Workload};
    pub use crate::replica::ReplicaConfig;
    pub use crate::select::{
        ideal_cost, prune_dominated, select_greedy, select_mip, select_single, CostMatrix,
        Selection,
    };
    pub use crate::store::{
        BlotStore, QueryResult, QueryService, ScanPlan, TracedQuery, UnitEntry,
    };
    pub use crate::units::{Bytes, Millis, PartitionCount, Seconds};
    pub use crate::CoreError;
    pub use blot_codec::{Compression, EncodingScheme, Layout};
    pub use blot_geo::{Cuboid, Point, QuerySize};
    pub use blot_index::{PartitioningScheme, SchemeSpec};
    pub use blot_model::{Record, RecordBatch};
    pub use blot_storage::EnvProfile;
}
