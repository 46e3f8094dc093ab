//! Distributed BLOT: the shard router.
//!
//! The paper (§VI) evaluates diverse replicas on a storage cluster;
//! this crate adds the missing tier to the reproduction: a
//! **coordinator** that partitions the fleet across N independent
//! `blot-server` nodes and serves range queries over all of them as
//! if they were one store.
//!
//! * [`ShardMap`] / [`ShardSpec`] — the versioned partitioning
//!   contract: every record lands on exactly one shard (OID hash or
//!   axis cuts), and `fanout` names every shard a query cuboid could
//!   match.
//! * [`Coordinator`] — scatter-gather over the existing wire protocol
//!   via per-shard connection pools whose workers each ask through one
//!   `blot_server::Client`, so a shard leg retries exactly as any
//!   client does ([`PoolConfig::client`]); merges
//!   ROW-PLAIN results into canonical `(oid, time)` order,
//!   bit-identical to a single-store execution; all-or-nothing
//!   failure with structured, retry-hinted errors.
//! * [`RouterService`] — the coordinator wearing
//!   `blot_core::store::QueryService`, so `blot_server::Server` fronts
//!   it unchanged (`blot route serve`).
//!
//! Replica selection stays **local to each shard**: a shard runs CELF
//! against its own workload slice and the coordinator only sees which
//! replica answered, via its stats and trace views.

#![forbid(unsafe_code)]
// No silently dropped `Result` (DESIGN.md §6b): handle it, or `#[allow]`
// the site with the reason the loss is harmless. Tests opt out, as they
// do for the panic lints in clippy.toml.
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod coordinator;
pub mod error;
pub mod pool;
pub mod service;
pub mod shardmap;

pub use coordinator::{Coordinator, DistributedQueryResult, RouterConfig, ShardLeg};
pub use error::RouterError;
pub use pool::PoolConfig;
pub use service::{RouterService, COORDINATOR_REPLICA};
pub use shardmap::{ShardMap, ShardSpec};
