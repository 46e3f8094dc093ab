//! `cargo xtask fuzz` — a native, dependency-free fuzz runner for the
//! codec decode paths.
//!
//! The container has no cargo-fuzz/libFuzzer, so the harness lives
//! here: a deterministic xorshift RNG drives structured mutations of
//! valid encodings (bit flips, truncations, splices, raw noise) into
//! every decoder, under `std::panic::catch_unwind`. The workspace audit
//! bans panics in the codec, and the `decoders_never_panic_on_garbage`
//! property test samples the same contract — the fuzz lane just pushes
//! orders of magnitude more inputs through it on a time budget.
//!
//! There is one target per decoder — fourteen in all: the three
//! general-purpose decompressors, the tag-sniffing `decode_auto`, the
//! eight per-scheme targets of the full layout × compression grid
//! (each drives both `EncodingScheme::decode` and the query path's
//! `decode_filter_batched`, which must agree), the zone-map footer parser
//! (`zonemap_footer`), and the `blot-server` wire-frame decoder
//! (`server_frame`). The codec targets are generated from
//! [`EncodingScheme::grid`], and [`codec`] is an exhaustive match, so a
//! new `Layout` or `Compression` variant gets its targets the commit it
//! compiles.

use blot_codec::{
    deflate_compress, deflate_decompress, lzf_compress, lzf_decompress, lzr_compress,
    lzr_decompress, CodecError, Compression, DecodeScratch, EncodingScheme, ZoneMap,
};
use blot_geo::{Cuboid, Point};
use blot_model::{Record, RecordBatch};
use blot_server::wire::{encode_frame, Request, Response};
use std::time::{Duration, Instant};

/// One fuzz target: a named decoder entry point that must never panic.
#[derive(Debug)]
pub struct FuzzTarget {
    /// Registry name (`lzf`, `decode_row_deflate`, …).
    pub name: String,
    decoder: Decoder,
}

/// What a target feeds its input to.
#[derive(Debug, Clone, Copy)]
enum Decoder {
    /// A stand-alone decompressor.
    Decompress(fn(&[u8]) -> Result<Vec<u8>, CodecError>),
    /// `EncodingScheme::decode_auto`, which reads the scheme from the tag.
    Auto,
    /// One scheme's `decode` and `decode_filter_batched`.
    Scheme(EncodingScheme),
    /// The zone-map footer parser.
    Footer,
    /// The `blot-server` wire-frame decoder.
    Frame,
}

impl Decoder {
    fn run(self, d: &[u8]) {
        match self {
            Self::Decompress(decompress) => {
                let _ = decompress(d);
            }
            Self::Auto => {
                let _ = EncodingScheme::decode_auto(d);
            }
            Self::Scheme(scheme) => {
                let full = scheme.decode(d);
                // Queries decode untrusted unit bytes through the batched
                // filter, not `decode`. A range that holds every finite
                // point makes it materialise all columns, and whenever both
                // accept the input they must have seen the same unit.
                let everywhere = Cuboid::new(
                    Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
                    Point::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
                );
                let filtered =
                    scheme.decode_filter_batched(d, &everywhere, &mut DecodeScratch::new());
                if let (Ok(full), Ok(filtered)) = (full, filtered) {
                    assert_eq!(
                        filtered.scanned,
                        full.len(),
                        "decode_filter_batched and decode disagree on the record count"
                    );
                }
            }
            Self::Footer => {
                // Parsing must never panic, and any footer that survives
                // the checksum must support a prune decision without
                // arithmetic traps.
                if let Ok((_, Some(zm))) = ZoneMap::split_footer(d) {
                    let probe =
                        Cuboid::new(Point::new(120.0, 30.0, 0.0), Point::new(122.0, 32.0, 1.0e8));
                    let _ = zm.overlaps(&probe);
                }
            }
            Self::Frame => blot_server::wire::fuzz_decode(d),
        }
    }
}

/// A stand-alone compressor and its inverse.
type Codec = (
    fn(&[u8]) -> Vec<u8>,
    fn(&[u8]) -> Result<Vec<u8>, CodecError>,
);

/// The codec behind `c`; `None` for `Plain`. Exhaustive, so a new
/// `Compression` variant does not compile until it is listed here.
fn codec(c: Compression) -> Option<Codec> {
    match c {
        Compression::Plain => None,
        Compression::Lzf => Some((lzf_compress, lzf_decompress)),
        Compression::Deflate => Some((deflate_compress, deflate_decompress)),
        Compression::Lzr => Some((lzr_compress, lzr_decompress)),
    }
}

/// The distinct stand-alone codecs of [`EncodingScheme::grid`], each
/// with its target name (`lzf`, …).
fn codecs() -> Vec<(String, Codec)> {
    let mut out: Vec<(String, Codec)> = Vec::new();
    for c in EncodingScheme::grid().map(|s| s.compression) {
        let name = lower(c);
        if out.iter().any(|(n, _)| *n == name) {
            continue;
        }
        if let Some(codec) = codec(c) {
            out.push((name, codec));
        }
    }
    out
}

/// A variant's name in lower case (`Lzr` → `lzr`).
fn lower(variant: impl std::fmt::Debug) -> String {
    format!("{variant:?}").to_lowercase()
}

/// The fourteen decoder targets: one per stand-alone codec and one per
/// scheme of [`EncodingScheme::grid`], plus `decode_auto`, the footer
/// and the wire frame.
#[must_use]
pub fn targets() -> Vec<FuzzTarget> {
    let target = |name: String, decoder| FuzzTarget { name, decoder };
    let mut targets: Vec<FuzzTarget> = codecs()
        .into_iter()
        .map(|(name, (_, decompress))| target(name, Decoder::Decompress(decompress)))
        .collect();
    targets.push(target("decode_auto".into(), Decoder::Auto));
    for scheme in EncodingScheme::grid() {
        let name = format!(
            "decode_{}_{}",
            lower(scheme.layout),
            lower(scheme.compression)
        );
        targets.push(target(name, Decoder::Scheme(scheme)));
    }
    targets.push(target("zonemap_footer".into(), Decoder::Footer));
    targets.push(target("server_frame".into(), Decoder::Frame));
    targets
}

/// The registered target names (for `--target` and its error message).
#[must_use]
pub fn target_names() -> Vec<String> {
    targets().into_iter().map(|t| t.name).collect()
}

/// A panic caught in one decoder.
#[derive(Debug)]
pub struct Failure {
    /// Hex dump of the offending input (truncated to 256 bytes).
    pub input_hex: String,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// Result of fuzzing one target.
#[derive(Debug)]
pub struct TargetSummary {
    /// Target name.
    pub name: String,
    /// Inputs executed.
    pub execs: u64,
    /// Panics caught (fuzzing a target stops after the first few).
    pub failures: Vec<Failure>,
}

/// Deterministic xorshift64* generator — the fuzzer must reproduce a
/// run exactly from the target name alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            usize::try_from(self.next() % n as u64).unwrap_or(0)
        }
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic trajectory-shaped batch for seed corpora.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss
)]
fn seed_batch(n: usize) -> RecordBatch {
    (0..n)
        .map(|i| {
            let f = i as f64;
            let mut r = Record::new(
                (i % 8) as u32,
                1000 + (i as i64) * 15,
                121.0 + f * 1e-4,
                31.0 + f * 1e-5,
            );
            r.speed = (i % 60) as f32;
            r.occupied = i % 2 == 0;
            r
        })
        .collect()
}

/// Valid encodings plus raw patterns: mutations of real streams reach
/// much deeper decoder states than pure noise.
fn build_seeds() -> Vec<Vec<u8>> {
    let batch = seed_batch(64);
    let mut seeds: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8],
        (0u8..64).collect(),
        b"abcabcabcabcabcabcabcabcabcabc".to_vec(),
    ];
    for scheme in EncodingScheme::grid() {
        seeds.push(scheme.encode(&batch));
    }
    let pattern: Vec<u8> = (0u8..200).map(|i| i % 17).collect();
    for (_, (compress, _)) in codecs() {
        seeds.push(compress(&pattern));
    }
    // A bare zone-map footer, so mutations explore the checksum and
    // version checks without having to reconstruct the 73-byte tail.
    let mut footer = Vec::new();
    ZoneMap::from_batch(&batch).append_to(&mut footer);
    seeds.push(footer);
    // Valid wire frames for the `server_frame` target: one of every
    // request and reply variant, from the corpus the wire tests pin.
    // Mutations from these explore the context/no-context payload split
    // and the zero-trace-id rejection.
    let (requests, responses) = blot_server::wire::samples();
    let frames = requests
        .iter()
        .map(Request::encode)
        .chain(responses.iter().map(Response::encode));
    for (kind, payload) in frames {
        seeds.push(encode_frame(kind, &payload));
    }
    seeds
}

fn mutate(rng: &mut Rng, seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut input = seeds
        .get(rng.below(seeds.len()))
        .cloned()
        .unwrap_or_default();
    match rng.below(6) {
        // Bit flips.
        0 => {
            for _ in 0..=rng.below(8) {
                if input.is_empty() {
                    break;
                }
                let i = rng.below(input.len());
                if let Some(b) = input.get_mut(i) {
                    *b ^= 1 << rng.below(8);
                }
            }
        }
        // Byte overwrites.
        1 => {
            for _ in 0..=rng.below(4) {
                if input.is_empty() {
                    break;
                }
                let i = rng.below(input.len());
                #[allow(clippy::cast_possible_truncation)]
                let v = rng.next() as u8;
                if let Some(b) = input.get_mut(i) {
                    *b = v;
                }
            }
        }
        // Truncation.
        2 => {
            input.truncate(rng.below(input.len() + 1));
        }
        // Random extension.
        3 => {
            for _ in 0..rng.below(64) {
                #[allow(clippy::cast_possible_truncation)]
                input.push(rng.next() as u8);
            }
        }
        // Splice a window of another seed into this one.
        4 => {
            if let Some(other) = seeds.get(rng.below(seeds.len())) {
                if !other.is_empty() {
                    let from = rng.below(other.len());
                    let len = rng.below(other.len() - from + 1);
                    let at = rng.below(input.len() + 1);
                    let window: Vec<u8> = other.iter().skip(from).take(len).copied().collect();
                    input.splice(at..at, window);
                }
            }
        }
        // Pure noise.
        _ => {
            input.clear();
            for _ in 0..rng.below(300) {
                #[allow(clippy::cast_possible_truncation)]
                input.push(rng.next() as u8);
            }
        }
    }
    input
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().min(256) * 2);
    for b in bytes.iter().take(256) {
        out.push_str(&format!("{b:02x}"));
    }
    if bytes.len() > 256 {
        out.push('…');
    }
    out
}

/// Fuzzes the registered targets for `millis_per_target` each.
///
/// `filter` restricts the run to one target by name. The caller gets a
/// summary per target; any non-empty `failures` list is a bug in the
/// decoder under test.
///
/// # Errors
///
/// Returns a message when `filter` names no registered target.
pub fn run(filter: Option<&str>, millis_per_target: u64) -> Result<Vec<TargetSummary>, String> {
    let targets: Vec<FuzzTarget> = targets()
        .into_iter()
        .filter(|t| filter.is_none_or(|f| t.name == f))
        .collect();
    if targets.is_empty() {
        return Err(format!(
            "unknown fuzz target `{}`; registered: {}",
            filter.unwrap_or_default(),
            target_names().join(", ")
        ));
    }
    let seeds = build_seeds();
    // Silence the default per-panic backtrace spew while fuzzing.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut summaries = Vec::with_capacity(targets.len());
    for target in targets {
        let mut rng = Rng::new(fnv(&target.name));
        let budget = Duration::from_millis(millis_per_target);
        let start = Instant::now();
        let mut summary = TargetSummary {
            name: target.name,
            execs: 0,
            failures: Vec::new(),
        };
        while start.elapsed() < budget && summary.failures.len() < 4 {
            let input = mutate(&mut rng, &seeds);
            let decoder = target.decoder;
            if let Err(payload) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decoder.run(&input)))
            {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                summary.failures.push(Failure {
                    input_hex: hex(&input),
                    message,
                });
            }
            summary.execs += 1;
        }
        summaries.push(summary);
    }
    std::panic::set_hook(prev_hook);
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names are an interface: CI runs `--target server_frame` and
    /// the README `--target lzr`.
    #[test]
    fn fourteen_targets_cover_the_grid_the_footer_and_the_wire() {
        let mut names = target_names();
        names.sort();
        assert_eq!(
            names,
            [
                "decode_auto",
                "decode_column_deflate",
                "decode_column_lzf",
                "decode_column_lzr",
                "decode_column_plain",
                "decode_row_deflate",
                "decode_row_lzf",
                "decode_row_lzr",
                "decode_row_plain",
                "deflate",
                "lzf",
                "lzr",
                "server_frame",
                "zonemap_footer",
            ]
        );
    }

    #[test]
    fn smoke_run_is_deterministic_and_clean() {
        let a = run(Some("decode_auto"), 50).unwrap();
        assert_eq!(a.len(), 1);
        assert!(a[0].execs > 0);
        assert!(a[0].failures.is_empty(), "{:?}", a[0].failures);
    }

    #[test]
    fn unknown_target_is_an_error() {
        assert!(run(Some("nope"), 10).is_err());
    }
}
