//! blot-server — the concurrent network serving layer of the BLOT
//! store.
//!
//! The paper's BLOT abstraction (§II) assumes a front end that receives
//! range queries, routes each to the estimated-cheapest replica, and
//! scans the involved partitions. This crate is that front end: a
//! std-only, dependency-free TCP server wrapping any
//! [`blot_core::store::QueryService`] behind a small length-prefixed
//! binary protocol ([`wire`]).
//!
//! * [`wire`] — versioned frames, `Ping`/`RangeQuery`/`Stats` requests,
//!   structured error replies (a decodable request is *always*
//!   answered, never dropped);
//! * [`batch`] — bounded admission queue shedding load with
//!   `Overloaded` + retry-after, and micro-batching of queued queries
//!   into single pooled [`query_batch`](blot_core::store::BlotStore::query_batch)
//!   rounds;
//! * [`conn`] — accept loop and fixed connection-handler pool (the one
//!   audited home of serving-layer OS threads);
//! * [`shutdown`] — a cooperative latch (`unsafe` is forbidden
//!   workspace-wide, so there is no signal handler; the CLI trips the
//!   latch from a stdin watcher instead);
//! * [`server`] — lifecycle: bind, serve, graceful drain
//!   (stop accepting → answer in-flight → join threads → drain the
//!   scan pool → flush metrics);
//! * [`client`] — a blocking client with `Overloaded` retry/backoff,
//!   used by `blot query --remote` and the shard router;
//! * [`stats`] — the `Stats` reply payload (metrics + drift + the same
//!   text rendering the local CLI prints).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use blot_core::prelude::*;
//! use blot_server::client::Client;
//! use blot_server::server::{Server, ServerConfig};
//! use blot_storage::MemBackend;
//! use blot_tracegen::FleetConfig;
//!
//! // Build a small store…
//! let config = FleetConfig::small();
//! let (data, universe) = (config.generate(), config.universe());
//! let env = EnvProfile::local_cluster();
//! let model = CostModel::calibrate(&env, &data, 7);
//! let mut store = BlotStore::new(MemBackend::new(), env, universe, model);
//! store
//!     .build_replica(
//!         &data,
//!         ReplicaConfig::new(
//!             SchemeSpec::new(16, 4),
//!             EncodingScheme::new(Layout::Row, Compression::Plain),
//!         ),
//!     )
//!     .unwrap();
//!
//! // …serve it, query it remotely, shut down.
//! let server = Server::start(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
//! let q = Cuboid::from_centroid(universe.centroid(), QuerySize::new(0.4, 0.4, 1800.0));
//! let result = client.query(&q).unwrap();
//! assert_eq!(result.records.len(), data.count_in_range(&q));
//! let report = server.shutdown(std::time::Duration::from_secs(10));
//! assert!(report.threads_joined && report.pool_drained);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No silently dropped `Result` (DESIGN.md §6b): handle it, or `#[allow]`
// the site with the reason the loss is harmless. Tests opt out, as they
// do for the panic lints in clippy.toml.
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

pub mod batch;
pub mod client;
pub mod conn;
pub mod server;
pub mod shutdown;
pub mod stats;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError};
pub use server::{Server, ServerConfig, ServerError, ShutdownReport};
pub use shutdown::ShutdownFlag;
