//! Single-layer probes: each times one public function of one crate on
//! inputs taken from the run's own dataset. They run in traced runs only,
//! after the workload's passes, and feed the per-layer metrics that no
//! query replay reaches (encode, put, partition build, pool dispatch).

use std::sync::Arc;
use std::time::Instant;

use crate::fixture::{remove_dir, some_record, Ctx, Space, BUILD_SPANS};
use crate::spans::Tracer;
use crate::sut::{self, Cuboid, Files, Pool, RecordBatch, Scratch, Store, R3};
use crate::util::{mean, ratio};
use crate::workload::Layers;

const ENCODE: [&str; 3] = [
    "codec.encode.row-lzf",
    "codec.encode.col-deflate",
    "codec.encode.row-plain",
];

/// Units encoded per scheme.
const UNITS: usize = 8;

/// Spans of the set-up steps → their per-layer metrics.
pub fn set_up_layers(tracer: &Tracer, layers: &mut Layers) {
    let total = |name: &str| tracer.total_micros(name);
    layers.insert(
        "tracegen.generate_s".into(),
        total("tracegen.generate") / 1e6,
    );
    layers.insert("core.calibrate_ms".into(), total("core.calibrate") / 1e3);
    for (r, span) in BUILD_SPANS.iter().enumerate() {
        layers.insert(format!("core.build_replica_s.r{r}"), total(span) / 1e6);
    }
}

/// index, codec encode, storage put and pool probes over `data`.
///
/// # Errors
///
/// A probe's call into the program failed.
pub fn store_layers(
    ctx: &Ctx,
    data: &RecordBatch,
    universe: Cuboid,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    // index: build all three partitionings, assign the dataset once.
    let mut partitionings = Vec::new();
    for spec in &R3 {
        partitionings.push(tracer.leaf("index.build", || {
            sut::build_partitioning(data, universe, spec)
        }));
    }
    layers.insert(
        "index.build_ms".into(),
        tracer.total_micros("index.build") / 1e3,
    );
    let parts = tracer.counted(
        "index.assign_batch",
        || partitionings[2].assign_batch(data),
        |_| data.len(),
    );
    layers.insert(
        "index.assign_us_per_krec".into(),
        tracer.micros_per("index.assign_batch") * 1e3,
    );

    // codec: encode the same units of the balanced partitioning under
    // each scheme of R3; storage: put what was encoded.
    let step = (parts.len() / UNITS).max(1);
    let units: Vec<&RecordBatch> = parts.iter().step_by(step).take(UNITS).collect();
    let records: usize = units.iter().map(|u| u.len()).sum();
    let dir = ctx.fresh_dir("probe-put");
    let files = Files::open(&dir)?;
    let mut partition = 0u32;
    for (spec, name) in R3.iter().zip(ENCODE) {
        let mut bytes = 0usize;
        for unit in &units {
            let encoded = tracer.counted(name, || sut::encode(spec.encoding, unit), |_| unit.len());
            bytes += encoded.len();
            let len = encoded.len();
            tracer.counted("storage.put", || files.put(partition, encoded), |_| len)?;
            partition += 1;
        }
        let label = &name["codec.encode.".len()..];
        layers.insert(
            format!("codec.encode_ns_per_rec.{label}"),
            tracer.micros_per(name) * 1e3,
        );
        layers.insert(
            format!("codec.bytes_per_rec.{label}"),
            ratio(bytes as f64, records as f64),
        );
    }
    layers.insert(
        "storage.put_us_per_mb".into(),
        tracer.micros_per("storage.put") * 1e6,
    );
    remove_dir(&dir);

    pool_layers(units[0], universe, tracer, layers)
}

/// Pool dispatch cost and pool speed-up on equal decode tasks.
fn pool_layers(
    unit: &RecordBatch,
    universe: Cuboid,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    const NOOPS: usize = 256;
    const ROUNDS: usize = 40;
    const DECODES: usize = 32;
    let pool = Pool::default_width();
    let single = Pool::single();
    for _ in 0..ROUNDS {
        let tasks: Vec<_> = (0..NOOPS).map(|i| move || i).collect();
        tracer.leaf("storage.pool_dispatch", || pool.run_all(tasks))?;
    }
    layers.insert(
        "storage.pool_dispatch_us_per_task".into(),
        tracer.total_micros("storage.pool_dispatch") / (ROUNDS * NOOPS) as f64,
    );
    let scheme = R3[0].encoding;
    let encoded = Arc::new(sut::encode(scheme, unit));
    let decodes = || -> Vec<_> {
        (0..DECODES)
            .map(|_| {
                let encoded = Arc::clone(&encoded);
                move || {
                    sut::decode_filter(scheme, &encoded, &universe, &mut Scratch::default())
                        .map_or(0, |(matched, _)| matched.len())
                }
            })
            .collect()
    };
    pool.run_all(decodes())?; // first touch of the workers' buffers
    let mut speedups = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        tracer.leaf("storage.pool_decodes", || pool.run_all(decodes()))?;
        let wide = started.elapsed();
        let started = Instant::now();
        single.run_all(decodes())?;
        speedups.push(ratio(started.elapsed().as_secs_f64(), wide.as_secs_f64()));
    }
    layers.insert(
        "storage.pool_speedup".into(),
        crate::util::median(&speedups),
    );
    Ok(())
}

/// What needs the built store itself: `query_batch` of 16 tiny queries
/// (per query), and the drift the store recorded while it served.
pub fn live_store_layers(
    store: &Store,
    data: &RecordBatch,
    space: &Space,
    ctx: &Ctx,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    const ROUNDS: usize = 20;
    let mut rng = ctx.stream(0xBA7C);
    let mut per_query = Vec::new();
    for _ in 0..ROUNDS {
        let batch: Vec<Cuboid> = (0..16)
            .map(|_| {
                space.box_at(
                    some_record(data, &mut rng),
                    0.05,
                    space.data_seconds() / 64.0,
                )
            })
            .collect();
        let started = Instant::now();
        let answers = tracer.leaf("core.query_batch16", || store.query_batch(&batch));
        if answers.iter().all(Result::is_ok) {
            per_query.push(started.elapsed().as_secs_f64() * 1e6 / 16.0);
        }
    }
    layers.insert("core.query_batch16_us_per_query".into(), mean(&per_query));
    for (scheme, median, _) in store.drift_medians() {
        layers.insert(format!("core.drift_median.{scheme}"), median);
    }
}
