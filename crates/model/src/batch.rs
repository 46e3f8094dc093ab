use blot_geo::{Cuboid, Point};

use crate::{ParseError, Record};

/// A struct-of-arrays batch of records — the unit of physical encoding.
///
/// Every column has the same length. The batch preserves insertion order;
/// partitioners typically sort batches by `(oid, time)` before encoding so
/// that delta encodings compress well (§II-C of the paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordBatch {
    /// Object identifiers.
    pub oids: Vec<u32>,
    /// Timestamps, seconds since the dataset epoch.
    pub times: Vec<i64>,
    /// Longitudes.
    pub xs: Vec<f64>,
    /// Latitudes.
    pub ys: Vec<f64>,
    /// Speeds, km/h.
    pub speeds: Vec<f32>,
    /// Headings, degrees.
    pub headings: Vec<f32>,
    /// Occupancy flags.
    pub occupied: Vec<bool>,
    /// Passenger counts.
    pub passengers: Vec<u8>,
}

impl RecordBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with capacity for `n` records.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            oids: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            speeds: Vec::with_capacity(n),
            headings: Vec::with_capacity(n),
            occupied: Vec::with_capacity(n),
            passengers: Vec::with_capacity(n),
        }
    }

    /// Number of records in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// Whether the batch holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// Appends one record.
    pub fn push(&mut self, r: Record) {
        self.oids.push(r.oid);
        self.times.push(r.time);
        self.xs.push(r.x);
        self.ys.push(r.y);
        self.speeds.push(r.speed);
        self.headings.push(r.heading);
        self.occupied.push(r.occupied);
        self.passengers.push(r.passengers);
    }

    /// Appends all records of `other`.
    pub fn extend_from(&mut self, other: &Self) {
        self.oids.extend_from_slice(&other.oids);
        self.times.extend_from_slice(&other.times);
        self.xs.extend_from_slice(&other.xs);
        self.ys.extend_from_slice(&other.ys);
        self.speeds.extend_from_slice(&other.speeds);
        self.headings.extend_from_slice(&other.headings);
        self.occupied.extend_from_slice(&other.occupied);
        self.passengers.extend_from_slice(&other.passengers);
    }

    /// Returns record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    #[allow(clippy::indexing_slicing)] // the documented `# Panics` contract
    pub fn get(&self, i: usize) -> Record {
        Record {
            oid: self.oids[i],
            time: self.times[i],
            x: self.xs[i],
            y: self.ys[i],
            speed: self.speeds[i],
            heading: self.headings[i],
            occupied: self.occupied[i],
            passengers: self.passengers[i],
        }
    }

    /// The spatio-temporal position of record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    #[allow(clippy::indexing_slicing)] // the documented `# Panics` contract
    pub fn point(&self, i: usize) -> Point {
        #[allow(clippy::cast_precision_loss)]
        Point::new(self.xs[i], self.ys[i], self.times[i] as f64)
    }

    /// Iterates over the records.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Builds a batch from a slice of records.
    #[must_use]
    pub fn from_records(records: &[Record]) -> Self {
        let mut b = Self::with_capacity(records.len());
        for &r in records {
            b.push(r);
        }
        b
    }

    /// Collects the batch into a vector of records.
    #[must_use]
    pub fn to_records(&self) -> Vec<Record> {
        self.iter().collect()
    }

    /// Reorders the batch in place so records are sorted by `(oid, time)`
    /// — the order column encodings expect.
    #[allow(clippy::indexing_slicing)] // indices come from 0..len
    pub fn sort_by_oid_time(&mut self) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by_key(|&i| (self.oids[i], self.times[i]));
        self.permute(&idx);
    }

    /// Reorders the batch in place so records are sorted by time.
    #[allow(clippy::indexing_slicing)] // indices come from 0..len
    pub fn sort_by_time(&mut self) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by_key(|&i| self.times[i]);
        self.permute(&idx);
    }

    fn permute(&mut self, idx: &[usize]) {
        #[allow(clippy::indexing_slicing)] // callers pass a permutation of 0..len
        fn apply<T: Copy>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i]).collect()
        }
        self.oids = apply(&self.oids, idx);
        self.times = apply(&self.times, idx);
        self.xs = apply(&self.xs, idx);
        self.ys = apply(&self.ys, idx);
        self.speeds = apply(&self.speeds, idx);
        self.headings = apply(&self.headings, idx);
        self.occupied = apply(&self.occupied, idx);
        self.passengers = apply(&self.passengers, idx);
    }

    /// Records whose position falls inside the (closed) `range` — the
    /// final filtering step of BLOT query processing (§II-D).
    #[must_use]
    pub fn filter_range(&self, range: &Cuboid) -> Self {
        let mut out = Self::new();
        for i in 0..self.len() {
            if range.contains_point(&self.point(i)) {
                out.push(self.get(i));
            }
        }
        out
    }

    /// Count of records inside the (closed) `range` without materialising
    /// them.
    #[must_use]
    pub fn count_in_range(&self, range: &Cuboid) -> usize {
        (0..self.len())
            .filter(|&i| range.contains_point(&self.point(i)))
            .count()
    }

    /// The tight spatio-temporal bounding box of the batch, or `None` for
    /// an empty batch.
    #[must_use]
    pub fn bounding_box(&self) -> Option<Cuboid> {
        if self.is_empty() {
            return None;
        }
        let mut min = self.point(0);
        let mut max = min;
        for i in 1..self.len() {
            let p = self.point(i);
            min = min.min_with(&p);
            max = max.max_with(&p);
        }
        Some(Cuboid::new(min, max))
    }

    /// Serialises the batch as CSV text (one line per record, no header).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.len() * 48);
        for r in self.iter() {
            s.push_str(&r.to_csv_line());
            s.push('\n');
        }
        s
    }

    /// Parses a batch from CSV text produced by [`to_csv`](Self::to_csv).
    /// Empty lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseError`] encountered.
    pub fn from_csv(text: &str) -> Result<Self, ParseError> {
        let mut b = Self::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            b.push(Record::from_csv_line(line)?);
        }
        Ok(b)
    }
}

impl FromIterator<Record> for RecordBatch {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        let mut b = Self::new();
        for r in iter {
            b.push(r);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordBatch {
        let mut b = RecordBatch::new();
        b.push(Record::new(2, 30, 1.0, 1.0));
        b.push(Record::new(1, 20, 2.0, 2.0));
        b.push(Record::new(1, 10, 3.0, 3.0));
        b
    }

    #[test]
    fn push_get_len() {
        let b = sample();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.get(1).oid, 1);
        assert_eq!(b.get(1).time, 20);
    }

    #[test]
    fn sort_by_oid_time_orders_all_columns() {
        let mut b = sample();
        b.sort_by_oid_time();
        assert_eq!(b.oids, vec![1, 1, 2]);
        assert_eq!(b.times, vec![10, 20, 30]);
        assert_eq!(b.xs, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn filter_range_and_count_agree() {
        let b = sample();
        let range = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(2.5, 2.5, 25.0));
        let f = b.filter_range(&range);
        assert_eq!(f.len(), b.count_in_range(&range));
        assert_eq!(f.len(), 1);
        assert_eq!(f.get(0).oid, 1);
    }

    #[test]
    fn bounding_box_is_tight() {
        let b = sample();
        let bb = b.bounding_box().unwrap();
        assert_eq!(bb.min(), Point::new(1.0, 1.0, 10.0));
        assert_eq!(bb.max(), Point::new(3.0, 3.0, 30.0));
        assert!(RecordBatch::new().bounding_box().is_none());
    }

    #[test]
    fn csv_roundtrip_preserves_batch() {
        let b = sample();
        let csv = b.to_csv();
        let back = RecordBatch::from_csv(&csv).unwrap();
        assert_eq!(back.len(), b.len());
        assert_eq!(back.oids, b.oids);
        assert_eq!(back.times, b.times);
    }

    #[test]
    fn from_iterator_collects() {
        let b: RecordBatch = (0..5)
            .map(|i| Record::new(i, i64::from(i), 0.0, 0.0))
            .collect();
        assert_eq!(b.len(), 5);
        assert_eq!(b.oids, vec![0, 1, 2, 3, 4]);
    }
}
