//! Physical encoding stack for BLOT partitions.
//!
//! §II-C of the paper lists the encoding toolbox of a BLOT system: binary
//! instead of text, general-purpose compression of whole partitions, and
//! column-wise organisation with column encodings (delta, run-length),
//! freely combined. The evaluation instantiates seven concrete *encoding
//! schemes* (Table I): `{row, column} × {plain, Snappy, Gzip, LZMA2}`
//! minus the uncompressed column store.
//!
//! The environment this reproduction runs in has no compression crates
//! available, so the three general-purpose compressors are implemented
//! from scratch, each standing in for one point on the speed/ratio
//! spectrum:
//!
//! | paper    | here                     | class                          |
//! |----------|--------------------------|--------------------------------|
//! | Snappy   | [`Compression::Lzf`]     | byte-aligned greedy LZ, fast   |
//! | Gzip     | [`Compression::Deflate`] | LZSS + canonical Huffman       |
//! | LZMA2    | [`Compression::Lzr`]     | LZ + adaptive binary range coder, slow/high-ratio |
//!
//! The physical layouts are:
//!
//! * [`Layout::Row`] — fixed-width little-endian binary rows;
//! * [`Layout::Column`] — struct-of-arrays with per-column encodings:
//!   delta+zigzag varints for IDs and timestamps, Gorilla-style XOR float
//!   compression for coordinates, run-length encoding for flags.
//!
//! An [`EncodingScheme`] pairs a layout with a compression and is the unit
//! the replica selection problem enumerates (`m = m_P · m_E` candidate
//! replicas, §III-A).
//!
//! # Example
//!
//! ```
//! use blot_codec::{EncodingScheme, Layout, Compression};
//! use blot_model::{Record, RecordBatch};
//!
//! let mut batch: RecordBatch =
//!     (0..100).map(|i| Record::new(i % 4, i64::from(i), 121.4 + f64::from(i) * 1e-4, 31.2)).collect();
//! let scheme = EncodingScheme::new(Layout::Column, Compression::Deflate);
//! let bytes = scheme.encode(&batch);
//! let back = scheme.decode(&bytes).unwrap();
//! batch.sort_by_oid_time(); // column layout stores records in (oid, time) order
//! assert_eq!(back, batch);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No silently dropped `Result` (DESIGN.md §6b): handle it, or `#[allow]`
// the site with the reason the loss is harmless. Tests opt out, as they
// do for the panic lints in clippy.toml.
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]

mod bitio;
mod deflate;
mod error;
mod filter;
mod gorilla;
mod huffman;
mod layout;
mod lz77;
mod lzf;
mod lzr;
mod range;
mod rle;
mod scheme;
mod varint;
mod zonemap;

pub use bitio::{BitReader, BitWriter};
pub use error::CodecError;
pub use filter::{DecodeScratch, Filtered};
pub use scheme::{Compression, EncodingScheme, Layout, SchemeTable};
pub use zonemap::{ZoneMap, ZONE_MAP_FOOTER_LEN};

pub use deflate::{deflate_compress, deflate_decompress};
pub use lzf::{lzf_compress, lzf_decompress};
pub use lzr::{lzr_compress, lzr_decompress};

pub use rle::{rle_decode, rle_encode};
pub use varint::{
    read_varint_i64, read_varint_u64, write_varint_i64, write_varint_u64, zigzag_decode,
    zigzag_encode,
};
