//! Concurrency stress tests for blot-obs, in the style of
//! `crates/core/tests/concurrency.rs`: many threads hammer shared
//! instruments while a reader snapshots, and the final state must sum
//! exactly.
//!
//! These tests only make sense with the record path compiled in.
#![cfg(not(feature = "off"))]
// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods
)]

use blot_obs::{bucket_lower_bound, Histogram, MetricsRegistry, BUCKETS};

const THREADS: u64 = 8;
const ROUNDS: u64 = 5_000;

#[test]
fn concurrent_counter_increments_sum_exactly() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("stress.counter");
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = counter.clone();
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    if (t + i) % 3 == 0 {
                        c.add(2);
                    } else {
                        c.inc();
                    }
                }
            })
        })
        .collect();
    let mut expected = 0u64;
    for t in 0..THREADS {
        for i in 0..ROUNDS {
            expected += if (t + i) % 3 == 0 { 2 } else { 1 };
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.value(), expected);
    assert_eq!(
        registry.snapshot().counter("stress.counter"),
        Some(expected)
    );
}

#[test]
fn concurrent_histogram_records_sum_exactly() {
    let h = Histogram::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    // Values spread over many buckets.
                    #[allow(clippy::cast_precision_loss)]
                    h.record(((t * ROUNDS + i) % 1000) as f64 + 0.5);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let s = h.snapshot();
    assert_eq!(s.count(), THREADS * ROUNDS);
    // Σ of (k % 1000 + 0.5) over k = 0..THREADS·ROUNDS.
    let mut expected = 0.0;
    for k in 0..THREADS * ROUNDS {
        #[allow(clippy::cast_precision_loss)]
        let v = (k % 1000) as f64 + 0.5;
        expected += v;
    }
    assert!(
        (s.sum - expected).abs() / expected < 1e-9,
        "sum {} vs expected {expected}",
        s.sum
    );
}

#[test]
fn snapshot_while_recording_never_tears() {
    // A snapshot's count is derived from its buckets, so at any moment
    // it must (a) equal the bucket sum by construction and (b) be
    // monotonically non-decreasing across successive snapshots.
    let h = Histogram::new();
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    #[allow(clippy::cast_precision_loss)]
                    h.record((i % 64) as f64 + 1.0);
                }
            })
        })
        .collect();
    let mut last = 0u64;
    while writers.iter().any(|w| !w.is_finished()) {
        let s = h.snapshot();
        let count = s.count();
        let bucket_sum: u64 = s.buckets.iter().sum();
        assert_eq!(count, bucket_sum, "snapshot count must match its buckets");
        assert!(count >= last, "count went backwards: {count} < {last}");
        last = count;
    }
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(h.snapshot().count(), 4 * 20_000);
}

#[test]
fn histogram_bucket_boundaries_are_monotone() {
    let mut prev = -1.0;
    for i in 0..=BUCKETS {
        let b = bucket_lower_bound(i);
        assert!(b > prev, "bound {i} = {b} must exceed previous {prev}");
        prev = b;
    }
}
