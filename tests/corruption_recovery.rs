//! Corruption detection, end to end: golden v1 back-compat, single-bit
//! damage across a 16-segment stream, and seeded multi-bit fault
//! injection. Streams are decode-only, so damage is never repaired or
//! skipped: the strict reader fails at the damaged segment, and decoding
//! each segment the framing walker yields on its own shows the damage
//! stays inside that segment.
//!
//! The golden fixtures under `tests/golden/` were written by the v1
//! encoder (before checksums existed) and are committed as bytes: they
//! pin the promise that v1 containers and streams remain decodable by
//! every future reader.

mod common;

use common::{golden, golden_original};
use pastri::stream::Frames;
use pastri::{BlockGeometry, Compressor};
use proptest::prelude::*;

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
}

#[test]
fn golden_v1_stream_still_decodes() {
    let bytes = golden("v1_stream.pstrs");
    let original = golden_original();
    let values = common::read_stream(&bytes).unwrap();
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
        let _ = pastri::inspect(&bytes);
    }
}

const BLOCK_VALUES: usize = 36; // BlockGeometry::new(4, 9)

fn test_compressor() -> Compressor {
    Compressor::new(BlockGeometry::new(4, 9), 1e-10)
}

fn patterned(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 71) as f64 * 0.17).sin() * 3e-6)
        .collect()
}

/// Builds a stream of `segments` one-block v2 segments and locates each
/// segment's container payload `[start, end)`.
fn stream_with_ranges(segments: usize) -> (Vec<u8>, Vec<(usize, usize)>) {
    let values = patterned(BLOCK_VALUES * segments);
    let sink = common::v1_stream(&values, test_compressor(), 1);
    let ranges = common::stream_segment_ranges(&sink);
    assert_eq!(ranges.len(), segments);
    (sink, ranges)
}

/// Each segment the framing walker yields, decoded strictly on its own.
fn decode_each_segment(bytes: &[u8]) -> Vec<Result<Vec<f64>, pastri::DecompressError>> {
    Frames::new(bytes)
        .unwrap()
        .map(|segment| pastri::decompress(&segment.unwrap().container))
        .collect()
}

/// One flipped bit in segment 7 of 16: the strict read fails, and
/// segment 7 is the only one that fails to decode on its own; the
/// others come back bit-exact.
#[test]
fn sixteen_segments_one_flip_fails_only_its_segment() {
    let segments = 16;
    let (mut bytes, ranges) = stream_with_ranges(segments);
    let clean: Vec<Vec<f64>> = decode_each_segment(&bytes).into_iter().map(Result::unwrap).collect();

    let (start, end) = ranges[7];
    bytes[(start + end) / 2] ^= 0x08; // deep in a block payload

    assert!(common::read_stream(&bytes).is_err(), "the damaged segment fails the read");

    for (i, decoded) in decode_each_segment(&bytes).into_iter().enumerate() {
        match decoded {
            Ok(v) => assert_eq!(v, clean[i], "segment {i} is bit-exact"),
            Err(e) => assert_eq!(i, 7, "segment {i} failed: {e}"),
        }
    }
}

proptest! {
    /// Seeded fault injection against the golden v3 stream's
    /// parity-carrying segments: flip `k` random bits inside one
    /// segment's container. Nothing repairs them, so the damage must be
    /// detected and stay contained: the flipped segment fails to decode,
    /// every other segment comes back bit-exact, and nothing panics.
    #[test]
    fn flipped_bits_are_contained_to_their_segment(
        seed in any::<u64>(),
        target in 0usize..5,
        k in 1usize..12,
    ) {
        let mut bytes = golden("v3_stream.pstrs");
        let ranges = common::stream_segment_ranges(&bytes);
        prop_assert_eq!(ranges.len(), 5);
        let clean: Vec<Vec<f64>> =
            decode_each_segment(&bytes).into_iter().map(Result::unwrap).collect();

        let (start, end) = ranges[target];
        faults::BitFlipper::new(start as u64, end as u64, k, seed).apply(&mut bytes);

        let decoded = decode_each_segment(&bytes);
        prop_assert_eq!(decoded.len(), 5, "every segment must be visited");
        for (i, d) in decoded.into_iter().enumerate() {
            match d {
                Ok(v) => {
                    prop_assert_ne!(i, target, "a damaged v3 segment must never decode");
                    prop_assert_eq!(&v, &clean[i]);
                }
                Err(_) => prop_assert_eq!(i, target,
                    "damage must be attributed to the flipped segment"),
            }
        }
    }

    /// The same property over v2 containers: corruption is *detected*
    /// (never silently decoded).
    #[test]
    fn flipped_bits_are_detected_without_parity(
        seed in any::<u64>(),
        target in 0usize..8,
        k in 1usize..12,
    ) {
        let segments = 8;
        let (mut bytes, ranges) = stream_with_ranges(segments);
        let clean: Vec<Vec<f64>> =
            decode_each_segment(&bytes).into_iter().map(Result::unwrap).collect();

        let (start, end) = ranges[target];
        faults::BitFlipper::new(start as u64, end as u64, k, seed).apply(&mut bytes);

        let decoded = decode_each_segment(&bytes);
        prop_assert_eq!(decoded.len(), segments, "every segment must be visited");
        for (i, d) in decoded.into_iter().enumerate() {
            match d {
                Ok(v) => {
                    prop_assert_ne!(i, target,
                        "a corrupted v2 segment must never decode silently");
                    prop_assert_eq!(&v, &clean[i]);
                }
                Err(_) => prop_assert_eq!(i, target,
                    "damage must be attributed to the flipped segment"),
            }
        }
    }
}
