//! `Lzr` — the LZMA-class compressor: LZ with an adaptive binary range
//! coder.
//!
//! Stands in for LZMA2 in the paper's encoding-scheme lineup: the highest
//! compression ratio and the slowest decode of the three general-purpose
//! codecs. The model is a simplified LZMA:
//!
//! * per-packet `is_match` flag (adaptive, conditioned on the previous
//!   packet type);
//! * literals coded through an order-1 context (previous byte) of 8-bit
//!   bit-trees;
//! * match lengths through an 8-bit bit-tree (`len - 3`);
//! * a `is_rep` flag reusing the last distance (trajectory columns have
//!   strongly periodic strides);
//! * otherwise a 6-bit distance-slot bit-tree plus direct extra bits.
//!
//! The match finder reuses the hash-chain searcher with a 1 MiB window
//! and a deep chain, which is where the extra encode time goes.

use crate::lz77::MatchFinder;
use crate::range::{BitModel, BitTree, RangeDecoder, RangeEncoder};
use crate::varint::{read_varint_u64, write_varint_u64};
use crate::CodecError;

const WINDOW: usize = 1 << 20;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 255;
const MAX_CHAIN: usize = 128;
const DIST_SLOTS: u32 = 6; // 2^6 = 64 slots cover 32-bit distances
const MAX_DECODED: u64 = 1 << 30;

/// Distance → (slot, extra_bits, payload). Slot s ≥ 2 covers
/// `[2^(s/2+?)…]` in the LZMA fashion: slot = 2*msb + next bit.
fn dist_slot(dist: u32) -> (u32, u32, u32) {
    debug_assert!(dist >= 1);
    let d = dist - 1;
    if d < 4 {
        return (d, 0, 0);
    }
    let msb = 31 - d.leading_zeros();
    let slot = (msb << 1) | ((d >> (msb - 1)) & 1);
    let extra = msb - 1;
    let payload = d & ((1 << extra) - 1);
    (slot, extra, payload)
}

fn slot_base(slot: u32) -> (u32, u32) {
    if slot < 4 {
        return (slot, 0);
    }
    let extra = (slot >> 1) - 1;
    let base = (2 | (slot & 1)) << extra;
    (base, extra)
}

struct Models {
    is_match: [BitModel; 2],
    is_rep: BitModel,
    literal: Vec<BitTree>,
    len_tree: BitTree,
    rep_len_tree: BitTree,
    dist_slot_tree: BitTree,
}

impl Models {
    fn new() -> Self {
        Self {
            is_match: [BitModel::new(); 2],
            is_rep: BitModel::new(),
            literal: (0..256).map(|_| BitTree::new(8)).collect(),
            len_tree: BitTree::new(8),
            rep_len_tree: BitTree::new(8),
            dist_slot_tree: BitTree::new(DIST_SLOTS),
        }
    }

    /// The `is_match` model conditioned on the previous packet type.
    fn is_match_model(&mut self, prev_was_match: bool) -> &mut BitModel {
        let [lit, mat] = &mut self.is_match;
        if prev_was_match {
            mat
        } else {
            lit
        }
    }

    /// The order-1 literal tree for context byte `ctx`.
    #[allow(clippy::indexing_slicing)] // a u8 context always lands in the 256-entry table
    fn literal_model(&mut self, ctx: u8) -> &mut BitTree {
        &mut self.literal[usize::from(ctx)]
    }
}

/// Compresses `data`.
#[must_use]
pub fn lzr_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 3 + 16);
    write_varint_u64(&mut out, data.len() as u64);
    let mut enc = RangeEncoder::new();
    let mut models = Models::new();
    let mut mf = MatchFinder::new(data.len(), WINDOW, MIN_MATCH, MAX_MATCH, MAX_CHAIN);
    let mut pos = 0usize;
    let mut prev_was_match = false;
    let mut last_dist = 0u32;
    while pos < data.len() {
        let m = mf.find(data, pos);
        match m {
            Some(m) => {
                enc.encode_bit(models.is_match_model(prev_was_match), true);
                // The window is 1 MiB and lengths are capped at
                // MIN_MATCH + 255, so both conversions always fit.
                let dist = u32::try_from(m.dist).unwrap_or(u32::MAX);
                let len_payload = u32::try_from(m.len.saturating_sub(MIN_MATCH)).unwrap_or(255);
                if dist == last_dist && last_dist != 0 {
                    enc.encode_bit(&mut models.is_rep, true);
                    models.rep_len_tree.encode(&mut enc, len_payload);
                } else {
                    enc.encode_bit(&mut models.is_rep, false);
                    models.len_tree.encode(&mut enc, len_payload);
                    let (slot, extra, payload) = dist_slot(dist);
                    models.dist_slot_tree.encode(&mut enc, slot);
                    if extra > 0 {
                        enc.encode_direct(payload, extra);
                    }
                    last_dist = dist;
                }
                for p in pos..pos + m.len {
                    mf.insert(data, p);
                }
                pos += m.len;
                prev_was_match = true;
            }
            None => {
                let Some(&cur) = data.get(pos) else { break };
                enc.encode_bit(models.is_match_model(prev_was_match), false);
                let ctx = pos
                    .checked_sub(1)
                    .and_then(|p| data.get(p))
                    .copied()
                    .unwrap_or(0);
                models.literal_model(ctx).encode(&mut enc, u32::from(cur));
                mf.insert(data, pos);
                pos += 1;
                prev_was_match = false;
            }
        }
    }
    out.extend_from_slice(&enc.finish());
    out
}

/// Decompresses a stream produced by [`lzr_compress`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation or corrupt packet structure.
pub fn lzr_decompress(buf: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut hdr = 0usize;
    let declared = read_varint_u64(buf, &mut hdr)?;
    if declared > MAX_DECODED {
        return Err(CodecError::TooLarge { declared });
    }
    let declared = usize::try_from(declared).map_err(|_| CodecError::TooLarge { declared })?;
    let mut out = Vec::with_capacity(declared);
    if declared == 0 {
        return Ok(out);
    }
    let mut dec = RangeDecoder::new(buf.get(hdr..).unwrap_or_default())?;
    let mut models = Models::new();
    let mut prev_was_match = false;
    let mut last_dist = 0u32;
    while out.len() < declared {
        if dec.decode_bit(models.is_match_model(prev_was_match)) {
            let (len_payload, dist) = if dec.decode_bit(&mut models.is_rep) {
                if last_dist == 0 {
                    return Err(CodecError::Corrupt {
                        context: "rep-match before any match",
                    });
                }
                (models.rep_len_tree.decode(&mut dec), last_dist)
            } else {
                let len_payload = models.len_tree.decode(&mut dec);
                let slot = models.dist_slot_tree.decode(&mut dec);
                let (base, extra) = slot_base(slot);
                let payload = if extra > 0 {
                    dec.decode_direct(extra)
                } else {
                    0
                };
                last_dist = base + payload + 1;
                (len_payload, last_dist)
            };
            let len = len_payload as usize + MIN_MATCH;
            let dist = dist as usize;
            if dist > out.len() {
                return Err(CodecError::BadReference {
                    offset: dist,
                    decoded_len: out.len(),
                });
            }
            if out.len() + len > declared {
                return Err(CodecError::Corrupt {
                    context: "lzr output overruns declared size",
                });
            }
            let start = out.len() - dist;
            for i in 0..len {
                let b = out
                    .get(start + i)
                    .copied()
                    .ok_or(CodecError::BadReference {
                        offset: dist,
                        decoded_len: out.len(),
                    })?;
                out.push(b);
            }
            prev_was_match = true;
        } else {
            let ctx = out.last().copied().unwrap_or(0);
            let byte = u8::try_from(models.literal_model(ctx).decode(&mut dec)).map_err(|_| {
                CodecError::Corrupt {
                    context: "literal out of byte range",
                }
            })?;
            out.push(byte);
            prev_was_match = false;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let enc = lzr_compress(data);
        let dec = lzr_decompress(&enc).unwrap();
        assert_eq!(dec, data);
        enc.len()
    }

    #[test]
    fn dist_slot_roundtrips() {
        for dist in (1u32..5000).chain([65_535, 1 << 20]) {
            let (slot, extra, payload) = dist_slot(dist);
            let (base, extra2) = slot_base(slot);
            assert_eq!(extra, extra2, "dist {dist}");
            assert_eq!(base + payload + 1, dist, "dist {dist}");
        }
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(b"");
        roundtrip(b"z");
        roundtrip(b"abcabcabcabcabcabc");
        roundtrip(&vec![0u8; 10_000]);
        roundtrip(&(0..=255u8).collect::<Vec<_>>());
    }

    #[test]
    fn beats_deflate_on_structured_data() {
        // Periodic binary rows — the workload this codec exists for.
        let mut data = Vec::new();
        for i in 0u32..3_000 {
            data.extend_from_slice(&(i / 7).to_le_bytes());
            data.extend_from_slice(&(1_200_000u32 + i * 3).to_le_bytes());
            data.extend_from_slice(&f32::to_le_bytes(31.2 + (i as f32) * 1e-4));
        }
        let z = roundtrip(&data);
        let d = crate::deflate::deflate_compress(&data).len();
        assert!(z < d, "lzr {z} should beat deflate {d}");
    }

    #[test]
    fn random_data_roundtrips_without_blowup() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let data: Vec<u8> = (0..20_000).map(|_| rng.gen()).collect();
        let n = roundtrip(&data);
        assert!(n < data.len() + data.len() / 8 + 64);
    }

    #[test]
    fn corrupt_input_is_rejected_or_detected() {
        let enc = lzr_compress(b"the rain in spain stays mainly in the plain");
        // Truncating the range-coded body must not panic; it either errors
        // or the declared-length check catches it.
        if let Ok(out) = lzr_decompress(&enc[..6]) {
            assert_ne!(out, b"the rain in spain stays mainly in the plain")
        }
        let mut huge = Vec::new();
        write_varint_u64(&mut huge, u64::MAX / 3);
        assert!(matches!(
            lzr_decompress(&huge),
            Err(CodecError::TooLarge { .. })
        ));
    }
}
