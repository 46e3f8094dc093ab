//! Scanning one storage unit: read → decompress → filter (§II-D).
//!
//! Zone-map pruning happens before a [`ScanTask`] exists: the planner
//! consults the in-memory partition index (`blot-core`), so every task
//! that reaches [`run_scan`] fetches its payload.

use std::cell::RefCell;
use std::time::Instant;

use blot_codec::{DecodeScratch, EncodingScheme, ZoneMap};
use blot_geo::Cuboid;
use blot_model::RecordBatch;
use blot_obs::{names, SpanHandle};

use crate::{Backend, EnvProfile, StorageError, UnitKey};

thread_local! {
    /// Per-scan-thread decode buffers: every unit scanned on this thread
    /// reuses the same allocations.
    static SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());
}

/// A request to scan one storage unit against a query range.
#[derive(Debug, Clone, Copy)]
pub struct ScanTask {
    /// Unit to scan.
    pub key: UnitKey,
    /// Scheme the unit was encoded with.
    pub scheme: EncodingScheme,
    /// Query range to filter by; `None` extracts every record (used by
    /// replica repair).
    pub range: Option<Cuboid>,
}

/// Outcome of one scan task.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Unit scanned.
    pub key: UnitKey,
    /// Simulated wall time of the task, **including** the environment's
    /// per-unit extra cost.
    pub sim_ms: f64,
    /// The extra-cost share of `sim_ms` (task startup + open latency).
    pub extra_ms: f64,
    /// Bytes transferred from the backend.
    pub bytes: u64,
    /// Records decoded from the unit.
    pub records_scanned: usize,
    /// Records that passed the range filter.
    pub records_matched: usize,
    /// Full-extraction scans only: the zone-map statistics recomputed
    /// from the decoded records, for scrub to hold against the partition
    /// index. `None` on range scans.
    pub stats: Option<ZoneMap>,
    /// Full-extraction scans only: the stored footer disagrees with
    /// [`stats`](Self::stats) (or the unit predates footers). Scrub
    /// treats this as damage so repair rewrites the unit with a fresh
    /// footer.
    pub footer_mismatch: bool,
    /// The matching records.
    pub output: RecordBatch,
}

/// Executes a scan task: fetches the whole unit and runs it through the
/// batched decode-filter with thread-local scratch buffers.
///
/// Full extractions (`range: None`, the scrub/repair path) additionally
/// recompute the zone-map statistics from the decoded records
/// ([`ScanReport::stats`]) and flag units whose stored footer disagrees
/// (or is missing) via [`ScanReport::footer_mismatch`].
///
/// Under an active `trace` the decode+filter pass records a
/// `unit.decode` child span. A detached handle (or an `off` build)
/// records nothing and skips span bookkeeping.
///
/// # Errors
///
/// * [`StorageError::NotFound`] — unit missing;
/// * [`StorageError::Corrupt`] — unit bytes (or its footer) no longer
///   decode.
pub fn run_scan(
    backend: &dyn Backend,
    env: &EnvProfile,
    task: &ScanTask,
    trace: &SpanHandle,
) -> Result<ScanReport, StorageError> {
    let bytes = backend.get(task.key)?;
    let traced = trace.context().is_some();
    let mut decode_span = traced.then(|| trace.child(names::UNIT_DECODE));
    let started = Instant::now();
    // Fuse decode and filter when a range is given: selective queries
    // never materialise the non-matching records.
    let (output, scanned, stats, footer_mismatch) = match &task.range {
        Some(range) => {
            let filtered = SCRATCH
                .with(|cell| match cell.try_borrow_mut() {
                    Ok(mut scratch) => {
                        task.scheme
                            .decode_filter_batched(&bytes, range, &mut scratch)
                    }
                    // Unreachable in practice (no reentrancy); decode
                    // with fresh buffers rather than panic.
                    Err(_) => {
                        task.scheme
                            .decode_filter_batched(&bytes, range, &mut DecodeScratch::new())
                    }
                })
                .map_err(|source| StorageError::Corrupt {
                    key: task.key,
                    source,
                })?;
            (filtered.matched, filtered.scanned, None, false)
        }
        None => {
            let stored = ZoneMap::split_footer(bytes.get(1..).unwrap_or_default())
                .map_err(|source| StorageError::Corrupt {
                    key: task.key,
                    source,
                })?
                .1;
            let batch = task
                .scheme
                .decode(&bytes)
                .map_err(|source| StorageError::Corrupt {
                    key: task.key,
                    source,
                })?;
            let stats = ZoneMap::from_batch(&batch);
            let mismatch = !stored.is_some_and(|zm| zm.same_bits(&stats));
            let n = batch.len();
            (batch, n, Some(stats), mismatch)
        }
    };
    if let Some(span) = decode_span.as_mut() {
        span.note(names::BYTES, bytes.len() as u64);
        span.note(
            names::RECORDS,
            u64::try_from(output.len()).unwrap_or(u64::MAX),
        );
    }
    drop(decode_span);
    let cpu_ms = started.elapsed().as_secs_f64() * 1e3;
    let extra_ms = env.extra_ms();
    let sim_ms = extra_ms + env.scan_ms(bytes.len() as u64, cpu_ms);
    Ok(ScanReport {
        key: task.key,
        sim_ms,
        extra_ms,
        bytes: bytes.len() as u64,
        records_scanned: scanned,
        records_matched: output.len(),
        stats,
        footer_mismatch,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBackend;
    use blot_codec::{Compression, Layout, ZONE_MAP_FOOTER_LEN};
    use blot_geo::Point;
    use blot_model::Record;

    fn setup() -> (MemBackend, EncodingScheme, UnitKey, RecordBatch) {
        let batch: RecordBatch = (0..2000)
            .map(|i| Record::new(i % 5, i64::from(i), 121.0 + f64::from(i) * 1e-4, 31.0))
            .collect();
        let scheme = EncodingScheme::new(Layout::Row, Compression::Lzf);
        let backend = MemBackend::new();
        let key = UnitKey {
            replica: 0,
            partition: 0,
        };
        backend.put(key, scheme.encode(&batch)).unwrap();
        (backend, scheme, key, batch)
    }

    #[test]
    fn scan_filters_records() {
        let (backend, scheme, key, batch) = setup();
        let range = Cuboid::new(
            Point::new(121.0, 30.0, 0.0),
            Point::new(121.05, 32.0, 3000.0),
        );
        let report = run_scan(
            &backend,
            &EnvProfile::local_cluster(),
            &ScanTask {
                key,
                scheme,
                range: Some(range),
            },
            &SpanHandle::detached(),
        )
        .unwrap();
        assert_eq!(report.records_scanned, batch.len());
        assert_eq!(report.records_matched, batch.count_in_range(&range));
        assert!(report.records_matched > 0 && report.records_matched < batch.len());
        assert_eq!(report.output.len(), report.records_matched);
        assert!(report.sim_ms >= report.extra_ms);
    }

    #[test]
    fn scan_without_range_extracts_everything() {
        let (backend, scheme, key, batch) = setup();
        let report = run_scan(
            &backend,
            &EnvProfile::cloud_object_store(),
            &ScanTask {
                key,
                scheme,
                range: None,
            },
            &SpanHandle::detached(),
        )
        .unwrap();
        assert_eq!(report.output.len(), batch.len());
    }

    #[test]
    fn missing_and_corrupt_units_error() {
        let (backend, scheme, key, _) = setup();
        let missing = UnitKey {
            replica: 0,
            partition: 99,
        };
        assert!(matches!(
            run_scan(
                &backend,
                &EnvProfile::local_cluster(),
                &ScanTask {
                    key: missing,
                    scheme,
                    range: None,
                },
                &SpanHandle::detached(),
            ),
            Err(StorageError::NotFound { .. })
        ));
        // Truncate the unit in place: decode must fail as Corrupt.
        let bytes = backend.get(key).unwrap();
        backend.put(key, bytes[..bytes.len() / 2].to_vec()).unwrap();
        assert!(matches!(
            run_scan(
                &backend,
                &EnvProfile::local_cluster(),
                &ScanTask {
                    key,
                    scheme,
                    range: None,
                },
                &SpanHandle::detached(),
            ),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn legacy_unit_without_footer_scans_and_flags_mismatch() {
        let (backend, scheme, key, batch) = setup();
        // Strip the footer, emulating a unit written before zone maps.
        let bytes = backend.get(key).unwrap();
        backend
            .put(key, bytes[..bytes.len() - ZONE_MAP_FOOTER_LEN].to_vec())
            .unwrap();
        // A disjoint range still scans: `run_scan` itself never prunes.
        let range = Cuboid::new(
            Point::new(120.0, 30.0, 10_000.0),
            Point::new(122.0, 32.0, 20_000.0),
        );
        let report = run_scan(
            &backend,
            &EnvProfile::local_cluster(),
            &ScanTask {
                key,
                scheme,
                range: Some(range),
            },
            &SpanHandle::detached(),
        )
        .unwrap();
        assert_eq!(report.records_scanned, batch.len());
        assert_eq!(report.records_matched, 0);
        assert!(report.stats.is_none(), "range scans recompute no stats");
        // Full extraction reports the missing footer so scrub/repair can
        // upgrade the unit.
        let report = run_scan(
            &backend,
            &EnvProfile::local_cluster(),
            &ScanTask {
                key,
                scheme,
                range: None,
            },
            &SpanHandle::detached(),
        )
        .unwrap();
        assert!(report.footer_mismatch);
        assert!(report
            .stats
            .is_some_and(|zm| zm.same_bits(&ZoneMap::from_batch(&batch))));
    }

    #[test]
    fn corrupt_footer_is_an_error_never_a_short_answer() {
        let (backend, scheme, key, _) = setup();
        let mut bytes = backend.get(key).unwrap();
        // Flip a stats byte inside the footer: checksum must catch it.
        let at = bytes.len() - ZONE_MAP_FOOTER_LEN + 3;
        bytes[at] ^= 0xFF;
        backend.put(key, bytes).unwrap();
        let range = Cuboid::new(
            Point::new(120.0, 30.0, 10_000.0),
            Point::new(122.0, 32.0, 20_000.0),
        );
        assert!(matches!(
            run_scan(
                &backend,
                &EnvProfile::local_cluster(),
                &ScanTask {
                    key,
                    scheme,
                    range: Some(range),
                },
                &SpanHandle::detached(),
            ),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn forged_footer_bounds_are_reported_as_mismatch() {
        let (backend, scheme, key, _) = setup();
        let bytes = backend.get(key).unwrap();
        // Replace the footer with a validly-checksummed footer for a
        // different batch: only the recompute-and-compare pass can tell.
        let mut forged = bytes[..bytes.len() - ZONE_MAP_FOOTER_LEN].to_vec();
        let other: RecordBatch = (0..3)
            .map(|i| Record::new(i, 999_999, 100.0, 10.0))
            .collect();
        blot_codec::ZoneMap::from_batch(&other).append_to(&mut forged);
        backend.put(key, forged).unwrap();
        let report = run_scan(
            &backend,
            &EnvProfile::local_cluster(),
            &ScanTask {
                key,
                scheme,
                range: None,
            },
            &SpanHandle::detached(),
        )
        .unwrap();
        assert!(report.footer_mismatch);
    }

    #[test]
    fn extra_cost_dominates_tiny_scans_in_the_cloud() {
        let (backend, scheme, key, _) = setup();
        let report = run_scan(
            &backend,
            &EnvProfile::cloud_object_store(),
            &ScanTask {
                key,
                scheme,
                range: None,
            },
            &SpanHandle::detached(),
        )
        .unwrap();
        assert!(report.extra_ms / report.sim_ms > 0.9);
    }
}
