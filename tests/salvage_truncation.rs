//! `stream::salvage` against *every* byte-length truncation prefix of a
//! multi-segment stream — the crash shape a torn write leaves behind.
//!
//! For a prefix cut at byte `t` the contract is exact:
//!
//! * `t < 6` (inside the header): salvage refuses — there is no stream;
//! * otherwise salvage succeeds, keeps precisely the segments whose
//!   frames lie fully inside the prefix (byte-for-byte, in order),
//!   drops nothing (truncation is framing loss, not payload damage),
//!   reports `tail_lost` unless the prefix is the whole stream, and the
//!   output always re-reads strictly clean.
//!
//! An exhaustive sweep pins one shape; a proptest varies segment count,
//! segment size, and cut point.

mod common;

use pastri::stream::{salvage, StreamReader, StreamWriter};
use pastri::{BlockGeometry, Compressor};
use proptest::prelude::*;

const BLOCK_VALUES: usize = 36; // BlockGeometry::new(4, 9)

fn test_compressor() -> Compressor {
    Compressor::new(BlockGeometry::new(4, 9), 1e-10)
}

fn patterned(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 67) as f64 * 0.19).sin() * 2e-6)
        .collect()
}

fn build_stream(segments: usize, blocks_per_segment: usize) -> Vec<u8> {
    let mut sink = Vec::new();
    let mut w = StreamWriter::new(&mut sink, test_compressor(), blocks_per_segment).unwrap();
    w.write_values(&patterned(BLOCK_VALUES * blocks_per_segment * segments))
        .unwrap();
    w.finish().unwrap();
    sink
}

/// Offset just past each complete segment frame (varint + payload).
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    common::stream_segment_ranges(bytes)
        .into_iter()
        .map(|(_, end)| end)
        .collect()
}

fn decode_all(bytes: &[u8]) -> Vec<Vec<f64>> {
    let mut r = StreamReader::new(bytes).unwrap();
    let mut out = Vec::new();
    while let Some(seg) = r.next_segment().unwrap() {
        out.push(seg);
    }
    out
}

/// Salvages `full[..t]` and asserts the whole truncation contract.
/// Returns a message on failure so the proptest can report the case.
fn check_truncation(
    full: &[u8],
    ends: &[usize],
    clean: &[Vec<f64>],
    t: usize,
) -> Result<(), String> {
    let prefix = &full[..t];
    let mut out = Vec::new();
    let result = salvage(prefix, &mut out);
    if t < 6 {
        return match result {
            Err(_) => Ok(()),
            Ok(_) => Err(format!("t={t}: headerless prefix must be refused")),
        };
    }
    let report = result.map_err(|e| format!("t={t}: salvage failed: {e}"))?;

    let expect_kept = ends.iter().filter(|&&e| e <= t).count();
    if report.kept != expect_kept {
        return Err(format!(
            "t={t}: kept {} but {expect_kept} frames fit the prefix",
            report.kept
        ));
    }
    if !report.dropped.is_empty() {
        return Err(format!(
            "t={t}: truncation must never read as payload damage, dropped {:?}",
            report.dropped
        ));
    }
    if report.tail_lost != (t < full.len()) {
        return Err(format!(
            "t={t}: tail_lost={} but stream length is {}",
            report.tail_lost,
            full.len()
        ));
    }

    // The output re-reads strictly clean and holds the kept segments
    // bit-exact, in order.
    let mut r = StreamReader::new(out.as_slice())
        .map_err(|e| format!("t={t}: salvaged output unreadable: {e}"))?;
    let mut got = Vec::new();
    loop {
        match r.next_segment() {
            Ok(Some(seg)) => got.push(seg),
            Ok(None) => break,
            Err(e) => return Err(format!("t={t}: salvaged output damaged: {e}")),
        }
    }
    if got.len() != expect_kept {
        return Err(format!(
            "t={t}: output decodes {} segments, expected {expect_kept}",
            got.len()
        ));
    }
    for (i, (g, c)) in got.iter().zip(clean).enumerate() {
        if g != c {
            return Err(format!("t={t}: kept segment {i} is not bit-exact"));
        }
    }
    // Kept frames are copied verbatim: the output is header + the
    // untouched frame bytes + terminator.
    if expect_kept > 0 {
        let frames = &full[6..ends[expect_kept - 1]];
        if &out[6..out.len() - 1] != frames {
            return Err(format!("t={t}: kept frames must be byte-for-byte"));
        }
    }
    Ok(())
}

/// Every byte of a 5-segment stream is a cut point, exhaustively.
#[test]
fn every_truncation_prefix_salvages_cleanly() {
    let full = build_stream(5, 1);
    let ends = frame_ends(&full);
    assert_eq!(ends.len(), 5);
    let clean = decode_all(&full);
    for t in 0..=full.len() {
        if let Err(msg) = check_truncation(&full, &ends, &clean, t) {
            panic!("{msg}");
        }
    }
}

/// Same sweep over multi-block segments (different frame sizes exercise
/// cuts inside varints, inside payloads, and on frame boundaries).
#[test]
fn every_truncation_prefix_salvages_cleanly_multiblock() {
    let full = build_stream(3, 2);
    let ends = frame_ends(&full);
    assert_eq!(ends.len(), 3);
    let clean = decode_all(&full);
    for t in 0..=full.len() {
        if let Err(msg) = check_truncation(&full, &ends, &clean, t) {
            panic!("{msg}");
        }
    }
}

proptest! {
    /// Segment count × segment size × cut point.
    #[test]
    fn truncation_contract_holds(
        segments in 1usize..10,
        blocks_per_segment in 1usize..4,
        cut in any::<u64>(),
    ) {
        let full = build_stream(segments, blocks_per_segment);
        let ends = frame_ends(&full);
        prop_assert_eq!(ends.len(), segments);
        let clean = decode_all(&full);
        let t = (cut % (full.len() as u64 + 1)) as usize;
        if let Err(msg) = check_truncation(&full, &ends, &clean, t) {
            panic!("segments={segments} bps={blocks_per_segment}: {msg}");
        }
    }
}
