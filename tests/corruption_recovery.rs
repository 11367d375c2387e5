//! Corruption resilience, end to end: golden v1 back-compat, single-bit
//! damage recovery across a 16-segment stream, salvage, and seeded
//! multi-bit fault injection.
//!
//! The golden fixtures under `tests/golden/` were written by the v1
//! encoder (before checksums existed) and are committed as bytes: they
//! pin the promise that v1 containers and streams remain decodable by
//! every future reader.

mod common;

use std::path::Path;

use pastri::stream::{salvage, StreamReader, StreamWriter};
use pastri::{BlockGeometry, Compressor, CompressorOptions, ParityConfig};
use proptest::prelude::*;

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

fn golden_original() -> Vec<f64> {
    golden("v1_original.f64")
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn golden_v1_container_still_decodes() {
    let bytes = golden("v1_container.pastri");
    let original = golden_original();

    let info = pastri::inspect(&bytes).unwrap();
    assert_eq!(info.version, 1, "fixture must be a v1 container");
    assert_eq!(info.original_len, original.len());

    let values = pastri::decompress(&bytes).unwrap();
    assert_eq!(values.len(), original.len());
    for (a, b) in original.iter().zip(&values) {
        assert!(
            (a - b).abs() <= info.error_bound,
            "v1 decode must honor the recorded bound"
        );
    }

    // The lossy path agrees and reports a clean bill of health.
    let lossy = pastri::decompress_lossy(&bytes).unwrap();
    assert!(lossy.is_clean());
    assert_eq!(lossy.values, values);
}

#[test]
fn golden_v1_stream_still_decodes() {
    let bytes = golden("v1_stream.pstrs");
    let original = golden_original();
    let values = StreamReader::new(bytes.as_slice())
        .unwrap()
        .read_to_vec()
        .unwrap();
    assert_eq!(values.len(), original.len());
    let info = pastri::inspect(&golden("v1_container.pastri")).unwrap();
    for (a, b) in original.iter().zip(&values) {
        assert!((a - b).abs() <= info.error_bound);
    }
}

/// A v1 payload has no checksums, so flipped bits that keep the encoding
/// self-consistent cannot be *detected* — but they must never panic the
/// decoder. (v2's detection guarantee is proven below.)
#[test]
fn golden_v1_damage_never_panics() {
    let clean = golden("v1_container.pastri");
    for seed in 0..64u64 {
        let mut bytes = clean.clone();
        faults::BitFlipper::new(4, bytes.len() as u64, 3, seed).apply(&mut bytes);
        let _ = pastri::decompress(&bytes);
        let _ = pastri::decompress_lossy(&bytes);
        let _ = pastri::inspect(&bytes);
    }
}

const BLOCK_VALUES: usize = 36; // BlockGeometry::new(4, 9)

fn test_compressor() -> Compressor {
    Compressor::new(BlockGeometry::new(4, 9), 1e-10)
}

/// Parity-free (v2-layout) compressor: pins the detect-and-skip
/// semantics that predate self-healing containers.
fn test_compressor_no_parity() -> Compressor {
    Compressor::with_options(
        BlockGeometry::new(4, 9),
        1e-10,
        CompressorOptions {
            parity: ParityConfig::NONE,
            ..Default::default()
        },
    )
}

fn patterned(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 71) as f64 * 0.17).sin() * 3e-6)
        .collect()
}

/// Builds a stream of `segments` one-block segments and locates each
/// segment's container payload `[start, end)`.
fn stream_with_ranges(segments: usize) -> (Vec<u8>, Vec<(usize, usize)>) {
    stream_with_ranges_using(segments, test_compressor())
}

fn stream_with_ranges_using(
    segments: usize,
    compressor: Compressor,
) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut sink = Vec::new();
    let mut w = StreamWriter::new(&mut sink, compressor, 1, 2).unwrap();
    w.write_values(&patterned(BLOCK_VALUES * segments)).unwrap();
    w.finish().unwrap();
    let ranges = common::stream_segment_ranges(&sink);
    assert_eq!(ranges.len(), segments);
    (sink, ranges)
}

fn decode_all_segments(bytes: &[u8]) -> Vec<Vec<f64>> {
    let mut r = StreamReader::new(bytes).unwrap();
    let mut out = Vec::new();
    while let Some(seg) = r.next_segment().unwrap() {
        out.push(seg);
    }
    out
}

/// The self-healing headline scenario: 16 segments, one flipped bit, and
/// *all 16* segments come back bit-exact — the damaged one rebuilt from
/// its container's parity section, in flight, with the repair reported.
#[test]
fn sixteen_segments_one_flip_repairs_in_flight() {
    let segments = 16;
    let (mut bytes, ranges) = stream_with_ranges(segments);
    let clean = decode_all_segments(&bytes);

    let (start, end) = ranges[7];
    bytes[(start + end) / 2] ^= 0x08; // deep inside the container

    let mut r = StreamReader::new(bytes.as_slice()).unwrap();
    let mut ok = 0;
    let mut repaired = Vec::new();
    while let Some(outcome) = r.next_segment_or_skip().unwrap() {
        if outcome.was_repaired() {
            repaired.push(outcome.index);
        }
        let v = outcome.values.expect("all segments recover under parity");
        assert_eq!(v, clean[outcome.index], "recovered segments are bit-exact");
        ok += 1;
    }
    assert_eq!(ok, segments);
    assert_eq!(repaired, vec![7], "the flip is found and attributed");
}

/// Without parity (v2 layout), the same flip is detected and skipped:
/// 15 of 16 recovered, exactly one reported damaged — the PR 1 contract.
#[test]
fn sixteen_segments_one_flip_skips_one_without_parity() {
    let segments = 16;
    let (mut bytes, ranges) =
        stream_with_ranges_using(segments, test_compressor_no_parity());
    let clean = decode_all_segments(&bytes);

    let (start, end) = ranges[7];
    bytes[(start + end) / 2] ^= 0x08; // deep in a block payload

    let mut r = StreamReader::new(bytes.as_slice()).unwrap();
    let mut ok = 0;
    let mut damaged = Vec::new();
    while let Some(outcome) = r.next_segment_or_skip().unwrap() {
        match outcome.values {
            Ok(v) => {
                assert_eq!(v, clean[outcome.index], "recovered segments are bit-exact");
                ok += 1;
            }
            Err(e) => damaged.push((outcome.index, e)),
        }
    }
    assert_eq!(ok, segments - 1);
    assert_eq!(damaged.len(), 1);
    assert_eq!(damaged[0].0, 7);
}

/// ... and `salvage` heals the damaged stream back to its original
/// bytes: nothing dropped, the repair reported, strict decode clean.
#[test]
fn salvage_then_strict_decode_succeeds() {
    let segments = 16;
    let (original, ranges) = stream_with_ranges(segments);
    let clean = decode_all_segments(&original);
    let mut bytes = original.clone();

    let (start, end) = ranges[7];
    bytes[(start + end) / 2] ^= 0x08;

    let mut healed = Vec::new();
    let report = salvage(bytes.as_slice(), &mut healed).unwrap();
    assert_eq!(report.kept, segments, "parity keeps every segment");
    assert!(report.dropped.is_empty());
    assert_eq!(report.repaired.len(), 1);
    assert_eq!(report.repaired[0].0, 7);
    assert!(!report.tail_lost);
    assert!(report.is_lossless());

    // The healed stream is byte-identical to the stream as originally
    // written, and decodes *strictly* — no skipping needed.
    assert_eq!(healed, original);
    let recovered = decode_all_segments(&healed);
    assert_eq!(recovered, clean);
}

proptest! {
    /// Seeded fault injection against parity-protected segments: flip `k`
    /// random bits inside one segment. The damage must stay contained —
    /// either the segment repairs to bit-exact values or it is skipped
    /// with the damage attributed to it; every other segment comes back
    /// bit-exact, and nothing may panic.
    #[test]
    fn flipped_bits_are_contained_to_their_segment(
        seed in any::<u64>(),
        target in 0usize..8,
        k in 1usize..12,
    ) {
        let segments = 8;
        let (mut bytes, ranges) = stream_with_ranges(segments);
        let clean = decode_all_segments(&bytes);

        let (start, end) = ranges[target];
        faults::BitFlipper::new(start as u64, end as u64, k, seed).apply(&mut bytes);

        let mut r = StreamReader::new(bytes.as_slice()).unwrap();
        let mut seen = vec![false; segments];
        while let Some(outcome) = r.next_segment_or_skip().unwrap() {
            seen[outcome.index] = true;
            match outcome.values {
                Ok(v) => {
                    // Repaired or untouched either way the values must be
                    // bit-exact; silent corruption is never acceptable.
                    prop_assert_eq!(&v, &clean[outcome.index]);
                }
                Err(_) => prop_assert_eq!(outcome.index, target,
                    "damage must be attributed to the flipped segment"),
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every segment must be visited");
    }

    /// The same property without parity: corruption is *detected* (never
    /// silently decoded) even when it cannot be repaired.
    #[test]
    fn flipped_bits_are_detected_without_parity(
        seed in any::<u64>(),
        target in 0usize..8,
        k in 1usize..12,
    ) {
        let segments = 8;
        let (mut bytes, ranges) =
            stream_with_ranges_using(segments, test_compressor_no_parity());
        let clean = decode_all_segments(&bytes);

        let (start, end) = ranges[target];
        faults::BitFlipper::new(start as u64, end as u64, k, seed).apply(&mut bytes);

        let mut r = StreamReader::new(bytes.as_slice()).unwrap();
        let mut seen = vec![false; segments];
        while let Some(outcome) = r.next_segment_or_skip().unwrap() {
            seen[outcome.index] = true;
            match outcome.values {
                Ok(v) => {
                    prop_assert_ne!(outcome.index, target,
                        "a corrupted v2 segment must never decode silently");
                    prop_assert_eq!(&v, &clean[outcome.index]);
                }
                Err(_) => prop_assert_eq!(outcome.index, target,
                    "damage must be attributed to the flipped segment"),
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every segment must be visited");
    }
}
