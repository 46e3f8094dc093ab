//! The linear-scan oracle every answer is checked against.
//!
//! It never touches the program's index, codecs or storage: it keeps the
//! raw records sorted by time, cuts the slab of records whose time falls
//! in the query's (closed) time range, and tests each record of the slab
//! with `Record::in_range`. Answers are compared as multisets through an
//! order-independent 128-bit fingerprint over every field of every record,
//! so neither side needs sorting and replicas may return any order.

use crate::sut::{Cuboid, Record, RecordBatch};

/// Order-independent digest of a multiset of records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub count: u64,
    sum: u64,
    mix: u64,
}

fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn digest(r: &Record) -> u64 {
    let mut h = avalanche(u64::from(r.oid) ^ 0x9E37_79B9_7F4A_7C15);
    for word in [
        r.time as u64,
        r.x.to_bits(),
        r.y.to_bits(),
        u64::from(r.speed.to_bits()) << 32 | u64::from(r.heading.to_bits()),
        u64::from(r.occupied) << 8 | u64::from(r.passengers),
    ] {
        h = avalanche(h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    h
}

impl Fingerprint {
    pub fn add(&mut self, r: &Record) {
        let h = digest(r);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.mix = self.mix.wrapping_add(avalanche(h ^ 0xD6E8_FEB8_6659_FD93));
    }

    #[must_use]
    pub fn of(batch: &RecordBatch) -> Self {
        let mut f = Self::default();
        for r in batch.iter() {
            f.add(&r);
        }
        f
    }
}

/// The raw records, sorted by time.
#[derive(Debug, Clone)]
pub struct Oracle {
    by_time: RecordBatch,
}

impl Oracle {
    #[must_use]
    pub fn new(data: &RecordBatch) -> Self {
        let mut by_time = data.clone();
        by_time.sort_by_time();
        Self { by_time }
    }

    /// Adds newly ingested records.
    pub fn extend(&mut self, batch: &RecordBatch) {
        self.by_time.extend_from(batch);
        self.by_time.sort_by_time();
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.by_time.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_time.is_empty()
    }

    /// Calls `hit` with every record inside the closed `range`.
    fn scan(&self, range: &Cuboid, mut hit: impl FnMut(Record)) {
        let times = &self.by_time.times;
        let lo = times.partition_point(|&t| (t as f64) < range.min().t);
        let hi = times.partition_point(|&t| (t as f64) <= range.max().t);
        for i in lo..hi {
            let r = self.by_time.get(i);
            if r.in_range(range) {
                hit(r);
            }
        }
    }

    /// The fingerprint a correct answer to `range` must have.
    #[must_use]
    pub fn expect(&self, range: &Cuboid) -> Fingerprint {
        let mut f = Fingerprint::default();
        self.scan(range, |r| f.add(&r));
        f
    }

    /// The records a correct answer holds (for the self-test).
    #[must_use]
    pub fn records(&self, range: &Cuboid) -> RecordBatch {
        let mut out = RecordBatch::new();
        self.scan(range, |r| out.push(r));
        out
    }

    /// Whether `answer` is exactly the multiset the oracle expects.
    #[must_use]
    pub fn agrees(&self, range: &Cuboid, answer: &RecordBatch) -> bool {
        self.expect(range) == Fingerprint::of(answer)
    }
}
