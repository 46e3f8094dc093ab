//! Facade crate for the BLOT diverse-replica storage workspace.
//!
//! Re-exports every workspace crate under one roof so applications can
//! depend on `blot` alone:
//!
//! * [`core`] — the paper's contribution: cost model, replica
//!   selection, query routing, recovery
//!   (start with [`core::prelude`]);
//! * [`geo`] — spatio-temporal geometry;
//! * [`model`] — the logical record model;
//! * [`codec`] — layouts and compression;
//! * [`index`] — partitioning schemes and the partitioning index;
//! * [`storage`] — backends and simulated execution environments;
//! * [`mip`] — the LP/MIP solver;
//! * [`tracegen`] — synthetic fleet data.
//!
//! See the README for a tour and `DESIGN.md` for the paper mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use blot_codec as codec;
pub use blot_core as core;
pub use blot_geo as geo;
pub use blot_index as index;
pub use blot_mip as mip;
pub use blot_model as model;
pub use blot_storage as storage;
pub use blot_tracegen as tracegen;
