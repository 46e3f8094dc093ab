//! The BLOT benchmark: six workloads, seven end-to-end metrics every
//! workload reports, and a per-layer budget measured from outside the
//! program. See `README.md` beside this crate and `../BENCHMARK.json`.

pub mod compare;
pub mod fixture;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod replay;
pub mod run;
pub mod serving;
pub mod spans;
pub mod sut;
pub mod util;
pub mod workload;
pub mod workloads;
