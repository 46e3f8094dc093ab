//! Filtered decoding: extract only the records inside a query range
//! without materialising the whole partition.
//!
//! §II-D's scan step is "read and decompress each involved partition to
//! extract all the records … check the extracted records and output the
//! ones within the query range". Building the full [`RecordBatch`] just
//! to throw most of it away doubles allocation traffic on selective
//! queries; this module fuses decode and filter, a batch at a time:
//!
//! * row layouts go through fixed-size batches of rows: a branch-light
//!   pass over the three predicate fields builds a match mask, and the
//!   other five fields are parsed only for the rows it keeps (plain
//!   rows are read straight from the input slice);
//! * column layouts decode the three predicate columns into reusable
//!   scratch vectors, compute the mask, and decode the remaining
//!   columns only when something matched.

use blot_geo::Cuboid;
use blot_model::{Record, RecordBatch};

use crate::layout::ROW_WIDTH;
use crate::scheme::{Compression, EncodingScheme, Layout};
use crate::varint::{read_varint_i64, read_varint_u64};
use crate::CodecError;

/// Result of a filtered decode.
#[derive(Debug, Clone)]
pub struct Filtered {
    /// The records inside the range.
    pub matched: RecordBatch,
    /// Total records the unit held (the paper's "records to be
    /// scanned").
    pub scanned: usize,
}

impl EncodingScheme {
    /// Decodes a storage unit produced by [`encode`](Self::encode) and
    /// returns only the records inside `range`, plus the scanned count.
    ///
    /// Produces exactly `decode(bytes)?.filter_range(range)` while
    /// avoiding the full intermediate batch. `scratch` is caller-owned
    /// so a scan loop reuses the same allocations across every unit it
    /// touches.
    ///
    /// Whole-unit pruning is *not* done here: deciding from the zone-map
    /// footer whether to decode at all is the storage layer's job,
    /// before the payload bytes are even fetched.
    ///
    /// # Errors
    ///
    /// Same as [`decode`](Self::decode).
    pub fn decode_filter_batched(
        self,
        bytes: &[u8],
        range: &Cuboid,
        scratch: &mut DecodeScratch,
    ) -> Result<Filtered, CodecError> {
        let (&tag, payload) = bytes.split_first().ok_or(CodecError::UnexpectedEof {
            context: "scheme tag",
        })?;
        if tag != self.tag() {
            return Err(CodecError::SchemeMismatch {
                found: tag,
                expected: self.tag(),
            });
        }
        let (payload, _zone_map) = crate::ZoneMap::split_footer(payload)?;
        let laid_out: std::borrow::Cow<'_, [u8]> = match self.compression {
            Compression::Plain => std::borrow::Cow::Borrowed(payload),
            Compression::Lzf => std::borrow::Cow::Owned(crate::lzf::lzf_decompress(payload)?),
            Compression::Deflate => {
                std::borrow::Cow::Owned(crate::deflate::deflate_decompress(payload)?)
            }
            Compression::Lzr => std::borrow::Cow::Owned(crate::lzr::lzr_decompress(payload)?),
        };
        match self.layout {
            Layout::Row => filter_rows_batched(&laid_out, range, scratch),
            Layout::Column => filter_columns_batched(&laid_out, range, scratch),
        }
    }
}

/// Rows per batch in the batched row path: large enough to amortise the
/// per-batch mask setup, small enough that the predicate columns of one
/// batch (~24 KiB) stay L1-resident.
const ROW_BATCH: usize = 1024;

/// Reusable decode buffers for [`EncodingScheme::decode_filter_batched`].
///
/// One instance per scan thread; every unit scanned through it reuses
/// the same allocations instead of growing fresh `Vec`s per unit and
/// per column.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Decoded predicate column: timestamps.
    times: Vec<i64>,
    /// Decoded predicate column: longitudes.
    xs: Vec<f64>,
    /// Decoded predicate column: latitudes.
    ys: Vec<f64>,
    /// Per-record predicate verdicts.
    mask: Vec<bool>,
    /// Gorilla bit patterns, shared by every float column decode.
    bits: Vec<u64>,
    /// Non-predicate columns, decoded only when the mask has survivors.
    oids: Vec<u32>,
    speeds: Vec<f32>,
    headings: Vec<f32>,
    occupied: Vec<u8>,
    passengers: Vec<u8>,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers grow to working size on first
    /// use and are retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The branch-light predicate: closed-boundary containment identical to
/// [`Cuboid::contains_point`], written as bitwise `&` of the six
/// comparisons so the compiler can vectorise the mask loop.
#[inline]
fn in_range(lo: &blot_geo::Point, hi: &blot_geo::Point, x: f64, y: f64, t: f64) -> bool {
    (x >= lo.x) & (x <= hi.x) & (y >= lo.y) & (y <= hi.y) & (t >= lo.t) & (t <= hi.t)
}

/// Batched row filter: per fixed-size batch, parse only the three
/// predicate fields, build the mask, then materialise survivors.
fn filter_rows_batched(
    buf: &[u8],
    range: &Cuboid,
    scratch: &mut DecodeScratch,
) -> Result<Filtered, CodecError> {
    let mut pos = 0usize;
    let count = read_varint_u64(buf, &mut pos)?;
    if count > (1 << 26) {
        return Err(CodecError::TooLarge { declared: count });
    }
    let count = usize::try_from(count).map_err(|_| CodecError::TooLarge { declared: count })?;
    let rows = count
        .checked_mul(ROW_WIDTH)
        .and_then(|len| pos.checked_add(len))
        .and_then(|end| buf.get(pos..end))
        .ok_or(CodecError::UnexpectedEof {
            context: "row records",
        })?;
    let (lo, hi) = (range.min(), range.max());
    let mut matched = RecordBatch::new();
    for block in rows.chunks(ROW_BATCH * ROW_WIDTH) {
        scratch.mask.clear();
        let mut survivors = 0usize;
        for row in block.chunks_exact(ROW_WIDTH) {
            let time = i64::from_le_bytes(field::<8>(row, 4)?);
            let x = f64::from_le_bytes(field::<8>(row, 12)?);
            let y = f64::from_le_bytes(field::<8>(row, 20)?);
            #[allow(clippy::cast_precision_loss)]
            let keep = in_range(&lo, &hi, x, y, time as f64);
            survivors += usize::from(keep);
            scratch.mask.push(keep);
        }
        if survivors == 0 {
            continue;
        }
        for (row, &keep) in block.chunks_exact(ROW_WIDTH).zip(&scratch.mask) {
            if !keep {
                continue;
            }
            matched.push(Record {
                oid: u32::from_le_bytes(field::<4>(row, 0)?),
                time: i64::from_le_bytes(field::<8>(row, 4)?),
                x: f64::from_le_bytes(field::<8>(row, 12)?),
                y: f64::from_le_bytes(field::<8>(row, 20)?),
                speed: f32::from_le_bytes(field::<4>(row, 28)?),
                heading: f32::from_le_bytes(field::<4>(row, 32)?),
                occupied: byte(row, 36)? != 0,
                passengers: byte(row, 37)?,
            });
        }
    }
    Ok(Filtered {
        matched,
        scanned: count,
    })
}

/// Batched column filter: predicate columns decode into scratch, the
/// mask decides whether the remaining five columns are touched at all.
fn filter_columns_batched(
    buf: &[u8],
    range: &Cuboid,
    scratch: &mut DecodeScratch,
) -> Result<Filtered, CodecError> {
    let mut pos = 0usize;
    let count = read_varint_u64(buf, &mut pos)?;
    if count > (1 << 26) {
        return Err(CodecError::TooLarge { declared: count });
    }
    let n = usize::try_from(count).map_err(|_| CodecError::TooLarge { declared: count })?;

    // Column order matches layout::encode_columns:
    // oid, time, x, y, speed, heading, occupied, passengers.
    let oid_c = read_chunk(buf, &mut pos)?;
    let time_c = read_chunk(buf, &mut pos)?;
    let x_c = read_chunk(buf, &mut pos)?;
    let y_c = read_chunk(buf, &mut pos)?;
    let sp_c = read_chunk(buf, &mut pos)?;
    let hd_c = read_chunk(buf, &mut pos)?;
    let oc_c = read_chunk(buf, &mut pos)?;
    let pa_c = read_chunk(buf, &mut pos)?;

    // Predicate columns into scratch.
    scratch.times.clear();
    {
        let mut cpos = 0usize;
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(read_varint_i64(time_c, &mut cpos)?);
            scratch.times.push(prev);
        }
    }
    crate::gorilla::decode_f64_bits_slice_into(x_c, n, &mut scratch.bits)?;
    scratch.xs.clear();
    scratch
        .xs
        .extend(scratch.bits.iter().map(|&b| f64::from_bits(b)));
    crate::gorilla::decode_f64_bits_slice_into(y_c, n, &mut scratch.bits)?;
    scratch.ys.clear();
    scratch
        .ys
        .extend(scratch.bits.iter().map(|&b| f64::from_bits(b)));

    let (lo, hi) = (range.min(), range.max());
    scratch.mask.clear();
    let mut survivors = 0usize;
    for ((&x, &y), &t) in scratch.xs.iter().zip(&scratch.ys).zip(&scratch.times) {
        #[allow(clippy::cast_precision_loss)]
        let keep = in_range(&lo, &hi, x, y, t as f64);
        survivors += usize::from(keep);
        scratch.mask.push(keep);
    }
    if survivors == 0 {
        // The whole point: non-predicate columns are never decoded.
        return Ok(Filtered {
            matched: RecordBatch::new(),
            scanned: n,
        });
    }

    // Remaining columns into scratch, then gather by mask.
    scratch.oids.clear();
    {
        let mut cpos = 0usize;
        let mut prev = 0i64;
        for _ in 0..n {
            prev += read_varint_i64(oid_c, &mut cpos)?;
            let oid = u32::try_from(prev).map_err(|_| CodecError::Corrupt {
                context: "oid column out of range",
            })?;
            scratch.oids.push(oid);
        }
    }
    crate::gorilla::decode_f32_column_into(sp_c, n, &mut scratch.bits, &mut scratch.speeds)?;
    crate::gorilla::decode_f32_column_into(hd_c, n, &mut scratch.bits, &mut scratch.headings)?;
    crate::rle::rle_decode_into(oc_c, &mut scratch.occupied)?;
    crate::rle::rle_decode_into(pa_c, &mut scratch.passengers)?;
    if scratch.occupied.len() != n || scratch.passengers.len() != n {
        return Err(CodecError::Corrupt {
            context: "column length mismatch",
        });
    }

    let mut matched = RecordBatch::with_capacity(survivors);
    let cols = scratch
        .oids
        .iter()
        .zip(&scratch.times)
        .zip(scratch.xs.iter().zip(&scratch.ys))
        .zip(scratch.speeds.iter().zip(&scratch.headings))
        .zip(scratch.occupied.iter().zip(&scratch.passengers));
    for (&keep, ((((&oid, &time), (&x, &y)), (&speed, &heading)), (&occupied, &passengers))) in
        scratch.mask.iter().zip(cols)
    {
        if keep {
            matched.push(Record {
                oid,
                time,
                x,
                y,
                speed,
                heading,
                occupied: occupied != 0,
                passengers,
            });
        }
    }
    Ok(Filtered {
        matched,
        scanned: n,
    })
}

/// The `N`-byte field starting at `at` in `row`, as a fixed array.
fn field<const N: usize>(row: &[u8], at: usize) -> Result<[u8; N], CodecError> {
    at.checked_add(N)
        .and_then(|end| row.get(at..end))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(CodecError::UnexpectedEof {
            context: "record field",
        })
}

/// The single byte at `at` in `row`.
fn byte(row: &[u8], at: usize) -> Result<u8, CodecError> {
    row.get(at).copied().ok_or(CodecError::UnexpectedEof {
        context: "record field",
    })
}

/// Reads a length-prefixed column chunk and advances `pos` past it.
fn read_chunk<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], CodecError> {
    let len = read_varint_u64(buf, pos)?;
    let len = usize::try_from(len).map_err(|_| CodecError::TooLarge { declared: len })?;
    let start = *pos;
    let chunk = start
        .checked_add(len)
        .and_then(|end| buf.get(start..end))
        .ok_or(CodecError::UnexpectedEof {
            context: "column chunk",
        })?;
    *pos = start + len;
    Ok(chunk)
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
mod tests {
    use super::*;
    use blot_geo::Point;

    fn batch(n: usize) -> RecordBatch {
        (0..n)
            .map(|i| {
                let mut r = Record::new(
                    (i % 6) as u32,
                    1_000 + (i as i64) * 10,
                    121.0 + (i as f64) * 1e-4,
                    31.0 + (i as f64) * 5e-5,
                );
                r.speed = (i % 50) as f32;
                r.occupied = i % 3 == 0;
                r.passengers = (i % 4) as u8;
                r
            })
            .collect()
    }

    fn test_range() -> Cuboid {
        Cuboid::new(
            Point::new(121.01, 31.0, 1_500.0),
            Point::new(121.05, 31.02, 6_000.0),
        )
    }

    #[test]
    fn filtered_decode_equals_decode_then_filter() {
        let b = batch(1_200);
        let range = test_range();
        let mut scratch = DecodeScratch::new();
        for scheme in EncodingScheme::all() {
            let bytes = scheme.encode(&b);
            let filtered = scheme
                .decode_filter_batched(&bytes, &range, &mut scratch)
                .unwrap();
            let full = scheme.decode(&bytes).unwrap();
            let expected = full.filter_range(&range);
            assert_eq!(filtered.scanned, b.len(), "{scheme}");
            assert_eq!(filtered.matched, expected, "{scheme}");
            assert!(
                !filtered.matched.is_empty(),
                "test range must match something"
            );
        }
    }

    #[test]
    fn empty_match_reports_scanned_count() {
        let b = batch(300);
        let nowhere = Cuboid::new(Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 1.0));
        let mut scratch = DecodeScratch::new();
        for scheme in EncodingScheme::all() {
            let bytes = scheme.encode(&b);
            let f = scheme
                .decode_filter_batched(&bytes, &nowhere, &mut scratch)
                .unwrap();
            assert_eq!(f.scanned, 300);
            assert!(f.matched.is_empty());
        }
    }

    #[test]
    fn corrupt_input_errors_not_panics() {
        let b = batch(100);
        let range = test_range();
        let mut scratch = DecodeScratch::new();
        for scheme in EncodingScheme::all() {
            let bytes = scheme.encode(&b);
            assert!(scheme
                .decode_filter_batched(&bytes[..bytes.len() / 2], &range, &mut scratch)
                .is_err());
            let wrong = EncodingScheme::all()
                .into_iter()
                .find(|s| *s != scheme)
                .expect("another scheme");
            assert!(matches!(
                wrong.decode_filter_batched(&bytes, &range, &mut scratch),
                Err(CodecError::SchemeMismatch { .. })
            ));
        }
    }
}
