//! The six workloads. Constants live with the workload that uses them and
//! are echoed into every result file through `describe`.

use blot_json::Json;

use crate::sut::{self, Model, Store, R3};

pub mod advise;
pub mod ingest_mix;
pub mod inproc;
pub mod routed;
pub mod serve_small;

/// Dataset size, replica set as built, and the fitted cost model.
#[must_use]
pub fn describe_store(store: &Store, model: &Model, records: usize) -> Json {
    Json::obj([
        ("records", Json::Num(records as f64)),
        (
            "backend",
            Json::Str("FileBackend; put never fsyncs, reads come from the page cache".into()),
        ),
        ("env", Json::Str(sut::env_name().into())),
        ("total_bytes", Json::Num(store.total_bytes() as f64)),
        (
            "replicas",
            Json::Arr(
                store
                    .replicas()
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("id", Json::Num(f64::from(r.id))),
                            ("config", Json::Str(r.label.clone())),
                            ("units", Json::Num(r.units as f64)),
                            ("bytes", Json::Num(r.bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("cost_model", describe_model(model)),
    ])
}

/// `ms_per_record` / `extra_ms` as fitted for each scheme of `R3`.
#[must_use]
pub fn describe_model(model: &Model) -> Json {
    Json::obj([
        ("calibration", Json::Str(sut::calibration_label())),
        (
            "fitted",
            Json::Arr(
                R3.iter()
                    .map(|spec| {
                        let (ms_per_record, extra_ms) = model.params(spec.encoding);
                        Json::obj([
                            ("scheme", Json::Str(spec.encoding.metric_label().into())),
                            ("ms_per_record", Json::Num(ms_per_record)),
                            ("extra_ms", Json::Num(extra_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
