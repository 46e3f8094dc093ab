//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! printed from these tables (`blot-benchmark spec`) and the self-test
//! checks the committed file still agrees with them.

use blot_json::Json;

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u32 = 8;

/// `(name, why)`; the constants behind each "why" are in the workload's
/// module and echoed into every result file.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "scan_heavy",
        "in-process query, 1 caller, 128 boxes each spanning 8% of the data (~80k records matched): codec decode/filter, storage payload fetch + pool and core merge do nearly all the work",
    ),
    (
        "selective",
        "in-process query, 1 caller, 256 queries that involve ~16 units and match ~30 records (3/4 of units pruned): storage footer reads, zone-map checks, index.involved, core.route, pool dispatch dominate",
    ),
    (
        "serve_small",
        "loopback Server, 2 connections, tiny queries; open loop at 300 qps timed from due time, then closed loop for capacity: wire codec, admission, 1 ms linger and batching dominate, the store does little",
    ),
    (
        "routed",
        "4 OidHash shard servers behind RouterService and a front Server, 2 closed-loop connections, boxes of 1% of the data (~9k-record replies): scatter/gather, reply re-encode, coordinator merge dominate",
    ),
    (
        "ingest_mix",
        "writes beside reads, one thread: ticks of one new fix per taxi ingested one by one, each followed by 32 tiny queries on new and old data; a read-side gain that writes must maintain shows its cost here",
    ),
    (
        "advise",
        "no store: estimate_scaled + prune_dominated + greedy + MIP over 175 candidates at 65 M records, five budgets; core::select, core::cost and mip do all the work, every serving layer is idle",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)`: what a user of the system sees. Every
/// workload reports every one of them; what the *op* is on each workload
/// is in the README's table.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("setup_s", "s", Lower, 0.25),
    ("op_p50_ms", "ms", Lower, 0.2),
    ("op_p90_ms", "ms", Lower, 0.25),
    ("ops_per_s", "1/s", Higher, 0.25),
    ("sim_cost_ms_mean", "ms", Lower, 0.15),
    ("stored_bytes_per_raw_byte", "b/b", Lower, 0.02),
    ("rss_peak_mb", "mb", Lower, 0.15),
];

/// `(name, unit, better)`: one layer each, no bound. A traced run reports
/// every one; a layer the workload never enters reports 0.
pub const PER_LAYER: [(&str, &str, Better); 81] = [
    ("tracegen.generate_s", "s", Lower),
    ("index.build_ms", "ms", Lower),
    ("index.involved_us", "us", Lower),
    ("index.involved_units", "count", Lower),
    ("index.assign_us_per_krec", "us/krec", Lower),
    ("codec.encode_ns_per_rec.row-lzf", "ns/rec", Lower),
    ("codec.encode_ns_per_rec.col-deflate", "ns/rec", Lower),
    ("codec.encode_ns_per_rec.row-plain", "ns/rec", Lower),
    ("codec.decode_filter_ns_per_rec.row-lzf", "ns/rec", Lower),
    (
        "codec.decode_filter_ns_per_rec.col-deflate",
        "ns/rec",
        Lower,
    ),
    ("codec.decode_filter_ns_per_rec.row-plain", "ns/rec", Lower),
    ("codec.zonemap_check_ns", "ns", Lower),
    ("codec.bytes_per_rec.row-lzf", "b/rec", Lower),
    ("codec.bytes_per_rec.col-deflate", "b/rec", Lower),
    ("codec.bytes_per_rec.row-plain", "b/rec", Lower),
    ("storage.get_tail_us", "us", Lower),
    ("storage.get_us_per_mb", "us/mb", Lower),
    ("storage.put_us_per_mb", "us/mb", Lower),
    ("storage.tail_reads_per_query", "count", Lower),
    ("storage.payload_reads_per_query", "count", Lower),
    ("storage.prune_ratio", "ratio", Higher),
    ("storage.bytes_fetched_per_matched_rec", "b/rec", Lower),
    ("storage.pool_dispatch_us_per_task", "us", Lower),
    ("storage.pool_speedup", "ratio", Higher),
    ("core.calibrate_ms", "ms", Lower),
    ("core.build_replica_s.r0", "s", Lower),
    ("core.build_replica_s.r1", "s", Lower),
    ("core.build_replica_s.r2", "s", Lower),
    ("core.route_us", "us", Lower),
    ("core.merge_us", "us", Lower),
    ("core.query_gap_us", "us", Lower),
    ("core.query_batch16_us_per_query", "us", Lower),
    ("core.replica_share.r0", "ratio", Higher),
    ("core.replica_share.r1", "ratio", Higher),
    ("core.replica_share.r2", "ratio", Higher),
    ("core.regret_sim_mean", "ratio", Lower),
    ("core.regret_sim_p95", "ratio", Lower),
    ("core.regret_wall_mean", "ratio", Lower),
    ("core.drift_median.row-lzf", "ratio", Lower),
    ("core.drift_median.col-deflate", "ratio", Lower),
    ("core.drift_median.row-plain", "ratio", Lower),
    ("core.ingest_units_rewritten_per_tick", "count", Lower),
    ("core.ingest_write_amp", "ratio", Lower),
    ("core.estimate_matrix_ms", "ms", Lower),
    ("core.prune_dominated_us", "us", Lower),
    ("core.candidates_kept", "count", Lower),
    ("core.greedy_us", "us", Lower),
    ("core.greedy_gain_evals", "count", Lower),
    ("core.select_mip_ms", "ms", Lower),
    ("core.greedy_vs_mip_cost_ratio", "ratio", Lower),
    ("mip.solve_ms", "ms", Lower),
    ("mip.nodes", "count", Lower),
    ("server.ping_rtt_us", "us", Lower),
    ("server.req_encode_us", "us", Lower),
    ("server.req_decode_us", "us", Lower),
    ("server.reply_encode_us_per_krec", "us/krec", Lower),
    ("server.reply_decode_us_per_krec", "us/krec", Lower),
    ("server.admission_ms_mean", "ms", Lower),
    ("server.batch_ms_mean", "ms", Lower),
    ("server.store_ms_mean", "ms", Lower),
    ("server.wire_gap_ms", "ms", Lower),
    ("server.batch_size_mean", "count", Higher),
    ("server.shed_frac", "ratio", Lower),
    ("server.retries_per_req", "ratio", Lower),
    ("router.fanout_us", "us", Lower),
    ("router.fanout_shards_mean", "count", Lower),
    ("router.coordinator_query_ms", "ms", Lower),
    ("router.front_hop_ms", "ms", Lower),
    ("router.slowest_shard_direct_ms", "ms", Lower),
    ("router.gather_overhead_ms", "ms", Lower),
    ("router.vs_single_ratio", "ratio", Lower),
    ("bench.trace_overhead_ratio", "ratio", Lower),
    ("bench.open_late_p95_ms", "ms", Lower),
    // What the end-to-end list had to leave out because not every
    // workload has it; informational, like every per-layer metric.
    ("bench.ops_sampled", "count", Higher),
    ("bench.op_p95_ms", "ms", Lower),
    ("bench.op_p99_ms", "ms", Lower),
    ("bench.records_per_s", "1/s", Higher),
    ("bench.closed_p50_ms", "ms", Lower),
    ("bench.closed_p95_ms", "ms", Lower),
    ("bench.mix_query_p50_ms", "ms", Lower),
    ("bench.mix_query_p95_ms", "ms", Lower),
];

/// The unit of a metric of either list.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// Per-layer counts that repeat bit for bit when the seed does and every
/// query was routed to the same replica. (`core.candidates_kept` is not
/// one of them: dominance depends on the fitted cost model, which is timed
/// on the host.)
#[must_use]
pub fn is_exact_count(name: &str) -> bool {
    name == "index.involved_units"
        || name == "storage.prune_ratio"
        || name.starts_with("core.ingest_")
        || (name.starts_with("storage.") && name.ends_with("_per_query"))
}

/// `BENCHMARK.json`, from the tables above.
#[must_use]
pub fn benchmark_json() -> Json {
    let s = |v: &str| Json::Str(v.to_owned());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(s)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::obj([("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(name, unit, better, bound)| {
                        Json::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.as_str())),
                            ("bound", Json::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
