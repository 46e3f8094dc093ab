//! One in-process query, layer by layer, through the public calls:
//! `route → involved → per unit: get_tail → split_footer/overlaps → get →
//! decode_filter_batched → extend_from`. This is what `BlotStore::query`
//! does inside (serially here, on the scan pool there), so the spans of a
//! replay say where a query's time goes without any span in the program.

use crate::spans::Tracer;
use crate::sut::{self, Cuboid, RecordBatch, Scratch, Store, R3};
use crate::util::{mean, ratio};
use crate::workload::Layers;

/// Span of `decode_filter_batched`, by replica id of `R3`.
const DECODE: [&str; 3] = [
    "codec.decode_filter.row-lzf",
    "codec.decode_filter.col-deflate",
    "codec.decode_filter.row-plain",
];

/// Exact counts of one replayed query, or of many added up.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub queries: usize,
    /// Queries by the replica that served them.
    pub served_by: [usize; 3],
    pub involved: usize,
    pub pruned: usize,
    pub tail_reads: usize,
    pub payload_reads: usize,
    pub bytes_fetched: u64,
    pub scanned: usize,
    pub matched: usize,
}

impl Counts {
    pub fn add(&mut self, other: &Self) {
        self.queries += other.queries;
        for (mine, theirs) in self.served_by.iter_mut().zip(other.served_by) {
            *mine += theirs;
        }
        self.involved += other.involved;
        self.pruned += other.pruned;
        self.tail_reads += other.tail_reads;
        self.payload_reads += other.payload_reads;
        self.bytes_fetched += other.bytes_fetched;
        self.scanned += other.scanned;
        self.matched += other.matched;
    }
}

/// Replays `range` on `replica` (or on the replica `route` ranks first).
/// Returns the replica used, the records found and the exact counts.
///
/// # Errors
///
/// Any layer call failed.
pub fn replay(
    store: &Store,
    replica: Option<u32>,
    range: &Cuboid,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
) -> Result<(u32, RecordBatch, Counts), String> {
    let replica = match replica {
        Some(id) => id,
        None => tracer
            .leaf("core.route", || store.route(range))
            .first()
            .copied()
            .ok_or("route returned no replica")?,
    };
    let decode = DECODE
        .get(replica as usize)
        .copied()
        .ok_or("replay knows only the replicas of R3")?;
    let involved = tracer.leaf("index.involved", || store.involved(replica, range))?;
    let mut counts = Counts {
        queries: 1,
        involved: involved.len(),
        ..Counts::default()
    };
    counts.served_by[replica as usize] = 1;
    let mut outputs = Vec::with_capacity(involved.len());
    for partition in involved {
        let (tail, _unit_len) =
            tracer.leaf("storage.get_tail", || store.get_tail(replica, partition))?;
        counts.tail_reads += 1;
        counts.bytes_fetched += tail.len() as u64;
        if tracer.leaf("codec.zonemap_check", || sut::zonemap_prunes(&tail, range))? {
            counts.pruned += 1;
            continue;
        }
        let unit = tracer.counted(
            "storage.get",
            || store.get(replica, partition),
            |unit| unit.as_ref().map_or(0, Vec::len),
        )?;
        counts.payload_reads += 1;
        counts.bytes_fetched += unit.len() as u64;
        let (matched, scanned) = tracer.counted(
            decode,
            || store.decode_filter(replica, &unit, range, scratch),
            |out| out.as_ref().map_or(0, |(_, scanned)| *scanned),
        )?;
        counts.scanned += scanned;
        outputs.push(matched);
    }
    let merged = tracer.leaf("core.merge", || {
        let mut merged = RecordBatch::new();
        for output in &outputs {
            merged.extend_from(output);
        }
        merged
    });
    counts.matched = merged.len();
    Ok((replica, merged, counts))
}

/// Per-layer metrics of replayed queries: times and rates from every
/// replay span the tracer holds (the spans carry the bytes fetched and the
/// records scanned), exact counts and replica shares from `counts`.
pub fn layers(tracer: &Tracer, counts: &Counts, layers: &mut Layers) {
    let mean_us = |name: &str| mean(&tracer.micros(name));
    let per_query = |n: usize| ratio(n as f64, counts.queries as f64);
    let mut put = |name: &str, value: f64| layers.insert(name.to_owned(), value);
    put("core.route_us", mean_us("core.route"));
    put("index.involved_us", mean_us("index.involved"));
    put("storage.get_tail_us", mean_us("storage.get_tail"));
    put(
        "codec.zonemap_check_ns",
        mean_us("codec.zonemap_check") * 1e3,
    );
    put("core.merge_us", mean_us("core.merge"));
    put(
        "storage.get_us_per_mb",
        tracer.micros_per("storage.get") * 1e6,
    );
    put("index.involved_units", per_query(counts.involved));
    put("storage.tail_reads_per_query", per_query(counts.tail_reads));
    put(
        "storage.payload_reads_per_query",
        per_query(counts.payload_reads),
    );
    put(
        "storage.prune_ratio",
        ratio(counts.pruned as f64, counts.involved as f64),
    );
    put(
        "storage.bytes_fetched_per_matched_rec",
        ratio(counts.bytes_fetched as f64, counts.matched as f64),
    );
    for (r, (spec, span)) in R3.iter().zip(DECODE).enumerate() {
        put(
            &format!(
                "codec.decode_filter_ns_per_rec.{}",
                spec.encoding.metric_label()
            ),
            tracer.micros_per(span) * 1e3,
        );
        put(
            &format!("core.replica_share.r{r}"),
            per_query(counts.served_by[r]),
        );
    }
}
