//! Property-based tests: every codec and layout must round-trip arbitrary
//! inputs, and compressed streams must decode to exactly the original.

// Test code: panicking on setup failure is the desired behaviour.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
use blot_codec::{
    deflate_compress, deflate_decompress, lzf_compress, lzf_decompress, lzr_compress,
    lzr_decompress, read_varint_i64, read_varint_u64, rle_decode, rle_encode, write_varint_i64,
    write_varint_u64, zigzag_decode, zigzag_encode, BitReader, BitWriter, CodecError, Compression,
    DecodeScratch, EncodingScheme, Layout, ZoneMap, ZONE_MAP_FOOTER_LEN,
};
use blot_geo::{Cuboid, Point};
use blot_model::{Record, RecordBatch};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = Record> {
    (
        0u32..10_000,
        -1_000_000i64..100_000_000,
        120.0f64..122.0,
        30.0f64..32.0,
        0.0f32..140.0,
        0.0f32..360.0,
        any::<bool>(),
        0u8..=4,
    )
        .prop_map(
            |(oid, time, x, y, speed, heading, occupied, passengers)| Record {
                oid,
                time,
                x,
                y,
                speed,
                heading,
                occupied,
                passengers,
            },
        )
}

fn arb_batch(max: usize) -> impl Strategy<Value = RecordBatch> {
    prop::collection::vec(arb_record(), 0..max).prop_map(|rs| RecordBatch::from_records(&rs))
}

/// Byte strings with enough repetition to exercise match emission, plus
/// raw random tails.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..2000),
        (prop::collection::vec(any::<u8>(), 1..60), 1usize..80).prop_map(|(unit, reps)| {
            unit.iter()
                .copied()
                .cycle()
                .take(unit.len() * reps)
                .collect()
        }),
        (
            prop::collection::vec(any::<u8>(), 0..400),
            prop::collection::vec(any::<u8>(), 1..40)
        )
            .prop_map(|(mut a, b)| {
                a.extend_from_slice(&b);
                a.extend_from_slice(&b);
                a.extend_from_slice(&b);
                a
            }),
    ]
}

/// Query cuboids that straddle the `arb_record` value ranges, from
/// match-nothing slivers to cover-everything boxes.
fn arb_range() -> impl Strategy<Value = Cuboid> {
    (
        119.0f64..123.0,
        0.0f64..2.5,
        29.0f64..33.0,
        0.0f64..2.5,
        -2_000_000f64..110_000_000.0,
        0.0f64..50_000_000.0,
    )
        .prop_map(|(x0, dx, y0, dy, t0, dt)| {
            Cuboid::new(
                Point::new(x0, y0, t0),
                Point::new(x0 + dx, y0 + dy, t0 + dt),
            )
        })
}

/// A stand-alone compressor and its inverse.
type Codec = (
    fn(&[u8]) -> Vec<u8>,
    fn(&[u8]) -> Result<Vec<u8>, CodecError>,
);

/// The codec behind `c`; `None` for `Plain`. Exhaustive, so a new
/// `Compression` variant does not compile until it is listed here and
/// `compressors_roundtrip` covers it.
fn compressor(c: Compression) -> Option<Codec> {
    match c {
        Compression::Plain => None,
        Compression::Lzf => Some((lzf_compress, lzf_decompress)),
        Compression::Deflate => Some((deflate_compress, deflate_decompress)),
        Compression::Lzr => Some((lzr_compress, lzr_decompress)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compressors_roundtrip(data in arb_bytes()) {
        let mut seen = Vec::new();
        for c in EncodingScheme::grid().map(|s| s.compression) {
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);
            if let Some((compress, decompress)) = compressor(c) {
                prop_assert_eq!(decompress(&compress(&data)).unwrap(), data.clone(), "{:?}", c);
            }
        }
    }

    #[test]
    fn schemes_roundtrip_batches(batch in arb_batch(120)) {
        let mut sorted = batch.clone();
        sorted.sort_by_oid_time();
        for scheme in EncodingScheme::grid() {
            let bytes = scheme.encode(&batch);
            let dec = scheme.decode(&bytes).unwrap();
            match scheme.layout {
                Layout::Row => prop_assert_eq!(&dec, &batch),
                Layout::Column => prop_assert_eq!(&dec, &sorted),
            }
        }
    }

    #[test]
    fn batched_filter_is_bit_identical_to_decode_then_filter(
        batch in arb_batch(200),
        range in arb_range(),
    ) {
        let mut scratch = DecodeScratch::new();
        for scheme in EncodingScheme::grid() {
            let bytes = scheme.encode(&batch);
            let batched = scheme.decode_filter_batched(&bytes, &range, &mut scratch).unwrap();
            let full = scheme.decode(&bytes).unwrap();
            prop_assert_eq!(batched.scanned, full.len(), "{}", scheme);
            prop_assert_eq!(&batched.matched, &full.filter_range(&range), "{}", scheme);
        }
    }

    #[test]
    fn zone_map_footer_roundtrips_and_never_misprunes(
        batch in arb_batch(150),
        range in arb_range(),
    ) {
        let mut scratch = DecodeScratch::new();
        for scheme in EncodingScheme::grid() {
            let bytes = scheme.encode(&batch);
            let (payload, zm) = ZoneMap::split_footer(bytes.get(1..).unwrap()).unwrap();
            let zm = zm.expect("encode always writes a footer");
            prop_assert_eq!(payload.len() + 1 + ZONE_MAP_FOOTER_LEN, bytes.len());
            prop_assert!(zm.same_bits(&ZoneMap::from_batch(&batch)));
            // The prune decision is exact: a non-overlapping verdict
            // implies the filter finds nothing.
            if !zm.overlaps(&range) {
                let f = scheme.decode_filter_batched(&bytes, &range, &mut scratch).unwrap();
                prop_assert!(f.matched.is_empty(), "{} mispruned", scheme);
            }
        }
    }

    #[test]
    fn corrupt_footers_error_never_panic(
        batch in arb_batch(60),
        idx in 0usize..ZONE_MAP_FOOTER_LEN,
        flip in 1u8..=255,
    ) {
        let scheme = EncodingScheme::new(Layout::Row, Compression::Plain);
        let mut bytes = scheme.encode(&batch);
        let n = bytes.len();
        // Damage one footer byte; decode must surface an error (bad
        // checksum / lost magic) or — only if the flip forged another
        // valid footer boundary — still a structured Ok, never a panic.
        let at = n - ZONE_MAP_FOOTER_LEN + idx;
        bytes[at] ^= flip;
        let _ = ZoneMap::split_footer(&bytes[1..]);
        let _ = scheme.decode(&bytes);
        let _ = EncodingScheme::decode_auto(&bytes);
        // Truncations anywhere in the footer region are always errors.
        for cut in (n - ZONE_MAP_FOOTER_LEN)..n {
            let _ = EncodingScheme::decode_auto(&bytes[..cut]);
        }
    }

    #[test]
    fn decoders_never_panic_on_garbage(mut data in prop::collection::vec(any::<u8>(), 0..600)) {
        // Whatever the bytes, decoding must return (Ok or Err), not panic.
        let _ = lzf_decompress(&data);
        let _ = deflate_decompress(&data);
        let _ = lzr_decompress(&data);
        let _ = EncodingScheme::decode_auto(&data);
        // Also flip bits in a valid stream.
        let valid = deflate_compress(b"some valid input some valid input");
        if !data.is_empty() && !valid.is_empty() {
            let mut mutated = valid;
            let idx = data[0] as usize % mutated.len();
            mutated[idx] ^= data.pop().unwrap_or(1) | 1;
            let _ = deflate_decompress(&mutated);
        }
    }

    #[test]
    fn compressed_is_never_catastrophically_larger(data in prop::collection::vec(any::<u8>(), 0..3000)) {
        let bound = data.len() + data.len() / 8 + 64;
        prop_assert!(lzf_compress(&data).len() <= bound);
        prop_assert!(deflate_compress(&data).len() <= bound + 400); // header tables
        prop_assert!(lzr_compress(&data).len() <= bound);
    }

    #[test]
    fn varint_u64_roundtrips(values in prop::collection::vec(any::<u64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_varint_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_varint_u64(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_i64_roundtrips(values in prop::collection::vec(any::<i64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_varint_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_varint_i64(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_u64_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..40)) {
        let mut pos = 0;
        while pos < data.len() {
            let before = pos;
            if read_varint_u64(&data, &mut pos).is_err() || pos == before {
                break;
            }
        }
    }

    #[test]
    fn zigzag_roundtrips(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        // Small magnitudes must map to small codes: that is the whole
        // point of the transform ahead of the varint stage.
        if v > -(1 << 20) && v < (1 << 20) {
            prop_assert!(zigzag_encode(v) < (1 << 21));
        }
    }

    #[test]
    fn rle_roundtrips(data in arb_bytes()) {
        prop_assert_eq!(rle_decode(&rle_encode(&data)).unwrap(), data);
    }

    #[test]
    fn rle_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = rle_decode(&data);
    }

    #[test]
    fn bitio_roundtrips(fields in prop::collection::vec((any::<u64>(), 1u32..=64), 0..120)) {
        let mut w = BitWriter::new();
        for &(raw, width) in &fields {
            let masked = if width == 64 { raw } else { raw & ((1u64 << width) - 1) };
            w.write_bits(masked, width);
        }
        let expected_bits = w.bit_len();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(raw, width) in &fields {
            let masked = if width == 64 { raw } else { raw & ((1u64 << width) - 1) };
            prop_assert_eq!(r.read_bits(width).unwrap(), masked);
        }
        prop_assert_eq!(r.bits_read(), expected_bits);
    }

    #[test]
    fn bitio_single_bits_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let mut w = BitWriter::new();
        for &b in &bits {
            w.write_bit(b);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &bits {
            prop_assert_eq!(r.read_bit().unwrap(), b);
        }
    }
}
