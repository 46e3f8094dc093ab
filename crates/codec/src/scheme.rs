//! Encoding schemes: the layout × compression grid of Table I.

use blot_model::RecordBatch;
use std::fmt;

use crate::layout;
use crate::CodecError;

/// Physical record layout inside a storage unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Fixed-width binary rows.
    Row,
    /// Column-major with per-column encodings (delta varints, Gorilla
    /// floats, run-length flags).
    Column,
}

/// General-purpose compression applied to the laid-out bytes.
///
/// The three compressors span the speed/ratio spectrum of the paper's
/// Snappy / Gzip / LZMA2 lineup (see the crate docs for the mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compression {
    /// No compression.
    Plain,
    /// Byte-aligned greedy LZ — Snappy-class (fast, modest ratio).
    Lzf,
    /// LZSS + Huffman — Gzip-class (balanced).
    Deflate,
    /// LZ + adaptive range coder — LZMA2-class (slow, high ratio).
    Lzr,
}

impl Compression {
    /// The paper's name for the codec this one stands in for.
    #[must_use]
    pub const fn paper_name(self) -> &'static str {
        match self {
            Self::Plain => "PLAIN",
            Self::Lzf => "SNAPPY",
            Self::Deflate => "GZIP",
            Self::Lzr => "LZMA",
        }
    }
}

/// A complete encoding scheme `E` (Definition 3): layout plus compression.
///
/// [`EncodingScheme::all`] enumerates the seven candidates of the paper's
/// evaluation — `{row, column} × {plain, Lzf, Deflate, Lzr}` minus the
/// uncompressed column store, which is dominated on both size and scan
/// speed ("poor performance in terms of both compression ratio and scan
/// speed", §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodingScheme {
    /// Record layout.
    pub layout: Layout,
    /// Whole-partition compression.
    pub compression: Compression,
}

impl EncodingScheme {
    /// Creates a scheme from its parts.
    #[must_use]
    pub const fn new(layout: Layout, compression: Compression) -> Self {
        Self {
            layout,
            compression,
        }
    }

    /// The seven candidate schemes of the paper's evaluation, in Table I
    /// column order (row-major across the table).
    #[must_use]
    pub fn all() -> Vec<Self> {
        let mut v = Vec::with_capacity(7);
        for compression in [
            Compression::Plain,
            Compression::Lzf,
            Compression::Deflate,
            Compression::Lzr,
        ] {
            for layout in [Layout::Row, Layout::Column] {
                if layout == Layout::Column && compression == Compression::Plain {
                    continue;
                }
                v.push(Self::new(layout, compression));
            }
        }
        v
    }

    /// Every constructible scheme — the full `{row, column} ×
    /// {plain, lzf, deflate, lzr}` grid *including* the dominated
    /// uncompressed column store, in [`SchemeTable`] slot order.
    ///
    /// Use [`all`](Self::all) for the paper's seven evaluation
    /// candidates; use this when a structure must be total over every
    /// scheme a tag can decode to (e.g. calibration tables). Total by
    /// construction: [`SchemeTable::get`] matches every `(Layout,
    /// Compression)` pair to one slot of the array [`SchemeTable::build`]
    /// fills from this list, so a new variant does not compile until it
    /// has a slot here — and the round-trip tests and fuzz targets,
    /// which iterate this list, then cover it.
    #[must_use]
    pub const fn grid() -> [Self; 8] {
        [
            Self::new(Layout::Row, Compression::Plain),
            Self::new(Layout::Row, Compression::Lzf),
            Self::new(Layout::Column, Compression::Lzf),
            Self::new(Layout::Row, Compression::Deflate),
            Self::new(Layout::Column, Compression::Deflate),
            Self::new(Layout::Row, Compression::Lzr),
            Self::new(Layout::Column, Compression::Lzr),
            Self::new(Layout::Column, Compression::Plain),
        ]
    }

    /// Stable lowercase label for metric names and machine-readable
    /// output (`"row-lzf"`, `"col-deflate"`, …). Unlike [`Display`]
    /// (paper-style `ROW-LZF`), this never changes shape: it is safe to
    /// embed in dotted metric keys.
    ///
    /// [`Display`]: fmt::Display
    #[must_use]
    pub const fn metric_label(self) -> &'static str {
        match (self.layout, self.compression) {
            (Layout::Row, Compression::Plain) => "row-plain",
            (Layout::Row, Compression::Lzf) => "row-lzf",
            (Layout::Row, Compression::Deflate) => "row-deflate",
            (Layout::Row, Compression::Lzr) => "row-lzr",
            (Layout::Column, Compression::Plain) => "col-plain",
            (Layout::Column, Compression::Lzf) => "col-lzf",
            (Layout::Column, Compression::Deflate) => "col-deflate",
            (Layout::Column, Compression::Lzr) => "col-lzr",
        }
    }

    /// Stable single-byte tag identifying the scheme on the wire.
    #[must_use]
    pub fn tag(self) -> u8 {
        let l = match self.layout {
            Layout::Row => 0u8,
            Layout::Column => 1u8,
        };
        let c = match self.compression {
            Compression::Plain => 0u8,
            Compression::Lzf => 1,
            Compression::Deflate => 2,
            Compression::Lzr => 3,
        };
        (l << 4) | c
    }

    /// Inverse of [`tag`](Self::tag).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for an unknown tag.
    pub fn from_tag(tag: u8) -> Result<Self, CodecError> {
        let layout = match tag >> 4 {
            0 => Layout::Row,
            1 => Layout::Column,
            _ => {
                return Err(CodecError::Corrupt {
                    context: "unknown layout tag",
                })
            }
        };
        let compression = match tag & 0x0F {
            0 => Compression::Plain,
            1 => Compression::Lzf,
            2 => Compression::Deflate,
            3 => Compression::Lzr,
            _ => {
                return Err(CodecError::Corrupt {
                    context: "unknown compression tag",
                })
            }
        };
        Ok(Self::new(layout, compression))
    }

    /// Encodes a batch into a self-describing storage unit
    /// (`[tag][compressed payload][zone-map footer]`).
    ///
    /// The footer carries the batch's min/max statistics
    /// ([`crate::ZoneMap`]) so scans can skip wholly-out-of-range units
    /// without touching the payload.
    #[must_use]
    pub fn encode(self, batch: &RecordBatch) -> Vec<u8> {
        let laid_out = match self.layout {
            Layout::Row => layout::encode_rows(batch),
            Layout::Column => layout::encode_columns(batch),
        };
        let payload = match self.compression {
            Compression::Plain => laid_out,
            Compression::Lzf => crate::lzf::lzf_compress(&laid_out),
            Compression::Deflate => crate::deflate::deflate_compress(&laid_out),
            Compression::Lzr => crate::lzr::lzr_compress(&laid_out),
        };
        let mut out = Vec::with_capacity(payload.len() + 1 + crate::ZONE_MAP_FOOTER_LEN);
        out.push(self.tag());
        out.extend_from_slice(&payload);
        crate::ZoneMap::from_batch(batch).append_to(&mut out);
        out
    }

    /// Decodes a storage unit produced by [`encode`](Self::encode),
    /// verifying the scheme tag.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::SchemeMismatch`] if the unit was written by a
    /// different scheme, or any decoding error from the layers below.
    pub fn decode(self, bytes: &[u8]) -> Result<RecordBatch, CodecError> {
        let (&tag, payload) = bytes.split_first().ok_or(CodecError::UnexpectedEof {
            context: "scheme tag",
        })?;
        if tag != self.tag() {
            return Err(CodecError::SchemeMismatch {
                found: tag,
                expected: self.tag(),
            });
        }
        // Strip (and validate) the zone-map footer: the decompressors
        // reject trailing bytes, and a damaged footer means a damaged
        // unit even when the payload survives.
        let (payload, _zone_map) = crate::ZoneMap::split_footer(payload)?;
        let laid_out = match self.compression {
            Compression::Plain => payload.to_vec(),
            Compression::Lzf => crate::lzf::lzf_decompress(payload)?,
            Compression::Deflate => crate::deflate::deflate_decompress(payload)?,
            Compression::Lzr => crate::lzr::lzr_decompress(payload)?,
        };
        match self.layout {
            Layout::Row => layout::decode_rows(&laid_out),
            Layout::Column => layout::decode_columns(&laid_out),
        }
    }

    /// Decodes a storage unit whose scheme is read from its own tag.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for unknown tags or payload corruption.
    pub fn decode_auto(bytes: &[u8]) -> Result<(Self, RecordBatch), CodecError> {
        let &tag = bytes.first().ok_or(CodecError::UnexpectedEof {
            context: "scheme tag",
        })?;
        let scheme = Self::from_tag(tag)?;
        Ok((scheme, scheme.decode(bytes)?))
    }
}

/// A dense, total map from **every** constructible [`EncodingScheme`]
/// to a `T` — the enum-indexed replacement for `HashMap<EncodingScheme,
/// T>` lookups whose "key always present" contract used to be a
/// documented panic.
///
/// Because the table is built by evaluating a closure on the full
/// [`EncodingScheme::grid`], lookups are infallible by construction:
/// there is no panic path and nothing for the workspace audit to waive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeTable<T>([T; 8]);

impl<T> SchemeTable<T> {
    /// Builds the table by evaluating `fill` on every scheme in
    /// [`EncodingScheme::grid`] order.
    #[must_use]
    pub fn build(mut fill: impl FnMut(EncodingScheme) -> T) -> Self {
        let [a, b, c, d, e, f, g, h] = EncodingScheme::grid();
        Self([
            fill(a),
            fill(b),
            fill(c),
            fill(d),
            fill(e),
            fill(f),
            fill(g),
            fill(h),
        ])
    }

    /// The entry for `scheme`. Total: every constructible scheme has a
    /// slot.
    #[must_use]
    pub fn get(&self, scheme: EncodingScheme) -> &T {
        let [rp, rl, cl, rd, cd, rz, cz, cp] = &self.0;
        match (scheme.layout, scheme.compression) {
            (Layout::Row, Compression::Plain) => rp,
            (Layout::Row, Compression::Lzf) => rl,
            (Layout::Column, Compression::Lzf) => cl,
            (Layout::Row, Compression::Deflate) => rd,
            (Layout::Column, Compression::Deflate) => cd,
            (Layout::Row, Compression::Lzr) => rz,
            (Layout::Column, Compression::Lzr) => cz,
            (Layout::Column, Compression::Plain) => cp,
        }
    }

    /// Iterates `(scheme, value)` pairs in [`EncodingScheme::grid`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (EncodingScheme, &T)> {
        EncodingScheme::grid().into_iter().zip(self.0.iter())
    }
}

impl std::str::FromStr for EncodingScheme {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form, e.g. `COL-LZMA`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::all()
            .into_iter()
            .find(|scheme| scheme.to_string().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                let names: Vec<String> = Self::all().iter().map(ToString::to_string).collect();
                format!(
                    "unknown encoding scheme `{s}`; expected one of {}",
                    names.join(", ")
                )
            })
    }
}

impl fmt::Display for EncodingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = match self.layout {
            Layout::Row => "ROW",
            Layout::Column => "COL",
        };
        write!(f, "{l}-{}", self.compression.paper_name())
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
mod tests {
    use super::*;
    use blot_model::Record;

    fn batch(n: usize) -> RecordBatch {
        (0..n)
            .map(|i| {
                let mut r = Record::new(
                    (i % 8) as u32,
                    1000 + (i as i64) * 15,
                    121.0 + (i as f64) * 1e-4,
                    31.0 + (i as f64) * 1e-5,
                );
                r.speed = (i % 60) as f32;
                r.occupied = i % 2 == 0;
                r
            })
            .collect()
    }

    #[test]
    fn exactly_seven_schemes() {
        let all = EncodingScheme::all();
        assert_eq!(all.len(), 7);
        assert!(!all.contains(&EncodingScheme::new(Layout::Column, Compression::Plain)));
        let names: Vec<String> = all.iter().map(ToString::to_string).collect();
        assert!(names.contains(&"ROW-PLAIN".to_owned()));
        assert!(names.contains(&"COL-LZMA".to_owned()));
    }

    #[test]
    fn grid_covers_every_scheme_exactly_once() {
        let grid = EncodingScheme::grid();
        let mut tags: Vec<u8> = grid.iter().map(|s| s.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 8);
        for s in EncodingScheme::all() {
            assert!(grid.contains(&s));
        }
        assert!(grid.contains(&EncodingScheme::new(Layout::Column, Compression::Plain)));
    }

    #[test]
    fn metric_labels_are_unique_and_lowercase() {
        let grid = EncodingScheme::grid();
        let mut labels: Vec<&str> = grid.iter().map(|s| s.metric_label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
        for s in grid {
            let label = s.metric_label();
            assert_eq!(label, label.to_lowercase());
            assert!(!label.contains(' '));
        }
    }

    #[test]
    fn scheme_table_is_total_and_ordered() {
        let table = SchemeTable::build(|s| s.tag());
        for s in EncodingScheme::grid() {
            assert_eq!(*table.get(s), s.tag());
        }
        let pairs: Vec<(EncodingScheme, u8)> = table.iter().map(|(s, &t)| (s, t)).collect();
        assert_eq!(pairs.len(), 8);
        for (s, t) in pairs {
            assert_eq!(s.tag(), t);
        }
    }

    #[test]
    fn tags_are_unique_and_reversible() {
        let grid = EncodingScheme::grid();
        let mut tags: Vec<u8> = grid.iter().map(|s| s.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 8);
        for s in grid {
            assert_eq!(EncodingScheme::from_tag(s.tag()).unwrap(), s);
        }
        assert!(EncodingScheme::from_tag(0xFF).is_err());
    }

    #[test]
    fn every_scheme_roundtrips() {
        let b = batch(800);
        let mut sorted = b.clone();
        sorted.sort_by_oid_time();
        for scheme in EncodingScheme::grid() {
            let bytes = scheme.encode(&b);
            let dec = scheme.decode(&bytes).unwrap();
            match scheme.layout {
                Layout::Row => assert_eq!(dec, b, "{scheme}"),
                Layout::Column => assert_eq!(dec, sorted, "{scheme}"),
            }
            let (auto_scheme, auto_dec) = EncodingScheme::decode_auto(&bytes).unwrap();
            assert_eq!(auto_scheme, scheme);
            assert_eq!(auto_dec.len(), b.len());
        }
    }

    #[test]
    fn scheme_mismatch_is_detected() {
        let b = batch(10);
        let row = EncodingScheme::new(Layout::Row, Compression::Plain);
        let col = EncodingScheme::new(Layout::Column, Compression::Lzf);
        let bytes = row.encode(&b);
        assert!(matches!(
            col.decode(&bytes),
            Err(CodecError::SchemeMismatch { .. })
        ));
    }

    #[test]
    fn compression_ratio_ordering_matches_table_one() {
        // On trajectory-like data: PLAIN > LZF > DEFLATE >= LZR in size,
        // and COL < ROW for every codec.
        let b = batch(20_000);
        let size = |l, c| EncodingScheme::new(l, c).encode(&b).len() as f64;
        let row_plain = size(Layout::Row, Compression::Plain);
        let row_lzf = size(Layout::Row, Compression::Lzf);
        let row_def = size(Layout::Row, Compression::Deflate);
        let row_lzr = size(Layout::Row, Compression::Lzr);
        assert!(
            row_plain > row_lzf && row_lzf > row_def && row_def > row_lzr,
            "row sizes: plain={row_plain} lzf={row_lzf} deflate={row_def} lzr={row_lzr}"
        );
        for c in [Compression::Lzf, Compression::Deflate, Compression::Lzr] {
            assert!(
                size(Layout::Column, c) < size(Layout::Row, c),
                "column must beat row under {c:?}"
            );
        }
    }
}
