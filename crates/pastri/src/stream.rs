//! The PaSTRI stream format, read-only: the layout of the golden
//! fixtures (`tests/golden/v1_stream.pstrs`, `v3_stream.pstrs`). New
//! durable output goes to the block store (`eri-store`), which writes
//! as it goes, commits in-band and resumes after a crash; streams are
//! kept so the fixtures still read, verify, scrub and salvage.
//!
//! Layout (version 1): the ASCII magic `PSTRS` + version byte, then a
//! sequence of *segments*, each a varint byte length followed by a
//! complete standalone PaSTRI container, then a zero varint as the
//! terminator. Any other version byte is [`DecompressError::BadVersion`].
//!
//! [`Frames`] is the one walker over the framing: the reader and
//! [`salvage`] both go through it. Segments are independently
//! decodable, so memory never exceeds one segment.
//!
//! Integrity comes from the embedded containers: each segment payload is
//! a container carrying its own header and per-block CRC32s, so a
//! flipped bit inside a segment is detected there. Because segments are
//! length-prefixed and independent, a damaged segment can be *skipped* —
//! [`StreamReader::next_segment_or_skip`] keeps reading past it, and
//! [`salvage`] rewrites a damaged stream keeping every intact segment
//! byte-for-byte. Only damage to the framing itself (a length varint or
//! a truncated tail) loses the remainder of the stream, since segment
//! boundaries can no longer be located.
//!
//! ```
//! use pastri::{BlockGeometry, Compressor};
//! use pastri::stream::StreamReader;
//!
//! // A stream framed by hand: magic and version, each segment's LEB128
//! // length and container, then the zero terminator.
//! let compressor = Compressor::new(BlockGeometry::new(4, 9), 1e-9);
//! let mut bytes = b"PSTRS\x01".to_vec();
//! for chunk in [[0.25f64; 100], [0.5; 100]] {
//!     let container = compressor.compress(&chunk);
//!     let mut len = container.len();
//!     while len >= 0x80 {
//!         bytes.push(len as u8 | 0x80);
//!         len >>= 7;
//!     }
//!     bytes.push(len as u8);
//!     bytes.extend_from_slice(&container);
//! }
//! bytes.push(0);
//!
//! let mut r = StreamReader::new(bytes.as_slice()).unwrap();
//! let mut restored = Vec::new();
//! while let Some(seg) = r.next_segment().unwrap() {
//!     restored.extend(seg);
//! }
//! assert_eq!(restored.len(), 200);
//! ```

use std::io::{self, Write};

use durable::ReadAt;

use crate::error::DecompressError;

pub(crate) const STREAM_MAGIC: [u8; 5] = *b"PSTRS";
/// The one stream version there is.
const STREAM_VERSION: u8 = 1;

/// Declared-length sanity ceiling for one segment (1 GiB).
const MAX_SEGMENT_BYTES: u64 = 1 << 30;

/// One segment of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The stream offset of the segment's container.
    pub at: u64,
    /// The container's bytes.
    pub container: Vec<u8>,
}

/// The one walker over stream framing: yields each segment in order and
/// stops at the terminator, or after the first framing error. Reads are
/// positional and hold one segment at a time; a length field claiming
/// more than the source holds fails before anything is allocated for it.
pub struct Frames<R: ReadAt> {
    source: R,
    size: u64,
    /// Offset of the next unread byte.
    pos: u64,
    done: bool,
}

impl<R: ReadAt> Frames<R> {
    /// Validates the stream header.
    ///
    /// # Errors
    /// `BadMagic`, `BadVersion`, `Truncated` if the header is short, or
    /// `Unreadable` if the source fails.
    pub fn new(source: R) -> Result<Self, DecompressError> {
        let mut frames = Self {
            size: source.size().map_err(unreadable)?,
            source,
            pos: 0,
            done: false,
        };
        let mut magic = [0u8; 6];
        frames.read_exact(&mut magic)?;
        if magic[..5] != STREAM_MAGIC {
            return Err(DecompressError::BadMagic { format: "stream" });
        }
        if magic[5] != STREAM_VERSION {
            return Err(DecompressError::BadVersion {
                format: "stream",
                version: magic[5],
            });
        }
        Ok(frames)
    }

    fn read_segment(&mut self) -> Result<Option<Segment>, DecompressError> {
        let len = self.read_varint()?;
        let at = self.pos;
        if len == 0 {
            return Ok(None);
        }
        if len > MAX_SEGMENT_BYTES {
            return Err(DecompressError::corrupt("segment implausibly large"));
        }
        if len > self.size.saturating_sub(at) {
            return Err(DecompressError::Truncated);
        }
        let mut container = vec![0u8; len as usize];
        self.read_exact(&mut container)?;
        Ok(Some(Segment { at, container }))
    }

    /// Reads one varint, at most 10 bytes in one read, decoded by the
    /// container's reader so both share one overflow rule.
    fn read_varint(&mut self) -> Result<u64, DecompressError> {
        let mut buf = [0u8; 10];
        let n = self.size.saturating_sub(self.pos).min(10) as usize;
        durable::read_exact_at(&self.source, &mut buf[..n], self.pos).map_err(unreadable)?;
        let mut used = 0;
        let v = crate::container::read_varint(&buf[..n], &mut used)?;
        self.pos += used as u64;
        Ok(v)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), DecompressError> {
        durable::read_exact_at(&self.source, buf, self.pos).map_err(unreadable)?;
        self.pos += buf.len() as u64;
        Ok(())
    }
}

/// The source ending is a truncated stream; any other read failure is
/// the medium's, not the stream's.
fn unreadable(e: io::Error) -> DecompressError {
    match e.kind() {
        io::ErrorKind::UnexpectedEof => DecompressError::Truncated,
        kind => DecompressError::Unreadable(kind),
    }
}

impl<R: ReadAt> Iterator for Frames<R> {
    type Item = Result<Segment, DecompressError>;

    /// The next segment; `None` at the terminator. An error is framing
    /// damage — a damaged length varint, an implausible length or a
    /// truncated tail — after which no further frame can be found, or
    /// `Unreadable` if the source fails; `None` follows it.
    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let result = self.read_segment().transpose();
        self.done = !matches!(result, Some(Ok(_)));
        result
    }
}

/// One segment's fate under [`StreamReader::next_segment_or_skip`].
#[derive(Debug, Clone)]
pub struct SegmentOutcome {
    /// Zero-based segment index within the stream.
    pub index: usize,
    /// The recovered values, or why the segment was skipped.
    pub values: Result<Vec<f64>, DecompressError>,
    /// Damage report when the segment's container needed parity repair:
    /// `Some` with the blocks reconstructed when repair succeeded (the
    /// values are then byte-exact), or `Some` with unrepairable blocks
    /// when damage exceeded the parity budget (`values` is the error).
    pub repair: Option<crate::repair::RepairReport>,
}
impl SegmentOutcome {
    /// Was this segment damaged on disk but fully reconstructed?
    #[must_use]
    pub fn was_repaired(&self) -> bool {
        self.values.is_ok() && self.repair.is_some()
    }
}

/// What one segment's container yielded after giving parity a chance.
struct RepairedDecode {
    /// The recovered values, or the original (strict) failure.
    values: Result<Vec<f64>, DecompressError>,
    /// Repair report when damage was found.
    repair: Option<crate::repair::RepairReport>,
    /// The repaired container bytes when repair fully succeeded —
    /// canonical, i.e. byte-identical to what the writer emitted.
    healed: Option<Vec<u8>>,
}

/// Strict decode with transparent parity repair.
fn decode_with_repair(container: &[u8]) -> RepairedDecode {
    match crate::repair::repair_container(container) {
        Ok((repaired, report)) if report.is_damaged() && report.is_fully_repaired() => {
            match crate::container::decompress(&repaired) {
                Ok(v) => {
                    telemetry::counter_add("repair.on_read_hits", 1);
                    RepairedDecode {
                        values: Ok(v),
                        repair: Some(report),
                        healed: Some(repaired),
                    }
                }
                Err(e) => RepairedDecode {
                    values: Err(e),
                    repair: Some(report),
                    healed: None,
                },
            }
        }
        Ok((_, report)) if report.is_damaged() => {
            // Beyond the parity budget: surface the strict decoder's
            // diagnosis (it pins the first failing block and offset).
            let err = match crate::container::decompress(container) {
                Err(e) => e,
                Ok(_) => DecompressError::corrupt("damage beyond parity budget"),
            };
            RepairedDecode {
                values: Err(err),
                repair: Some(report),
                healed: None,
            }
        }
        // Clean, or header-level damage repair cannot help with either
        // way: strict decode is the answer.
        _ => RepairedDecode {
            values: crate::container::decompress(container),
            repair: None,
            healed: None,
        },
    }
}

/// Streaming decompressor: yields one segment of values at a time.
pub struct StreamReader<R: ReadAt> {
    frames: Frames<R>,
    next_index: usize,
}

impl<R: ReadAt> StreamReader<R> {
    /// Validates the stream header.
    pub fn new(source: R) -> Result<Self, DecompressError> {
        Ok(Self {
            frames: Frames::new(source)?,
            next_index: 0,
        })
    }

    /// Reads and decompresses the next segment; `None` at the terminator.
    ///
    /// Strict: any damage fails the call. Use
    /// [`next_segment_or_skip`](Self::next_segment_or_skip) to read past
    /// damaged segments.
    pub fn next_segment(&mut self) -> Result<Option<Vec<f64>>, DecompressError> {
        match self.next_segment_bytes()? {
            None => Ok(None),
            Some(container) => crate::container::decompress(&container).map(Some),
        }
    }

    /// Reads the next segment, recovering it if intact, *repairing* it
    /// from its container's parity section if damaged-but-within-budget,
    /// and skipping it (with the reason) only when damage exceeds what
    /// parity can reconstruct. Returns `None` at the stream terminator.
    ///
    /// Repaired segments come back `Ok` with byte-exact values and a
    /// [`SegmentOutcome::repair`] report saying what was reconstructed.
    ///
    /// # Errors
    /// Only for unrecoverable framing loss — a damaged length varint or a
    /// truncated tail — after which segment boundaries cannot be located
    /// and no further segments can be read.
    pub fn next_segment_or_skip(
        &mut self,
    ) -> Result<Option<SegmentOutcome>, DecompressError> {
        let index = self.next_index;
        match self.next_segment_bytes()? {
            None => Ok(None),
            Some(container) => {
                let RepairedDecode { values, repair, .. } = decode_with_repair(&container);
                Ok(Some(SegmentOutcome {
                    index,
                    values,
                    repair,
                }))
            }
        }
    }

    /// Reads the next segment's raw container bytes (framing layer only).
    fn next_segment_bytes(&mut self) -> Result<Option<Vec<u8>>, DecompressError> {
        let segment = self.frames.next().transpose()?;
        self.next_index += usize::from(segment.is_some());
        Ok(segment.map(|s| s.container))
    }

    /// Convenience: drains the whole stream into one vector.
    pub fn read_to_vec(mut self) -> Result<Vec<f64>, DecompressError> {
        let mut out = Vec::new();
        while let Some(seg) = self.next_segment()? {
            out.extend(seg);
        }
        Ok(out)
    }
}
/// Report from [`salvage`]: what survived and what was dropped.
#[derive(Debug, Clone)]
pub struct SalvageReport {
    /// Segments written to the output (verbatim copies plus repairs).
    pub kept: usize,
    /// Index and repair report of each segment that was damaged but fully
    /// reconstructed from its container's parity section. These segments
    /// count toward `kept`; the output holds their canonical
    /// (as-originally-written) bytes.
    pub repaired: Vec<(usize, crate::repair::RepairReport)>,
    /// Index and failure reason of each segment dropped for payload
    /// damage beyond the parity budget.
    pub dropped: Vec<(usize, DecompressError)>,
    /// `true` when framing was lost (damaged length varint or truncated
    /// tail) before the terminator: everything after that point was
    /// discarded.
    pub tail_lost: bool,
}

impl SalvageReport {
    /// Was the source undamaged (nothing dropped, nothing repaired)?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.is_lossless() && self.repaired.is_empty()
    }

    /// Did every segment survive into the output (repairs included)?
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.dropped.is_empty() && !self.tail_lost
    }
}

/// Rewrites a (possibly damaged) stream from `source` into `sink`,
/// keeping every intact segment, *repairing* damaged segments from their
/// containers' parity sections when the damage is within budget, and
/// dropping only what neither verification nor parity can save. Intact
/// segments are copied *byte-for-byte* — never re-encoded; repaired
/// segments are written as their canonical (originally-written) bytes,
/// so salvaging an undamaged stream reproduces it exactly. The output is
/// always a well-formed, terminated stream; `sink` is flushed, not
/// synced — the caller makes the copy durable as a whole.
///
/// # Errors
/// `InvalidData` if `source` is not a PaSTRI stream at all (bad magic or
/// version); otherwise any I/O error from reading or writing. Damage
/// *inside* the stream is not an error — it is reported in the
/// [`SalvageReport`].
pub fn salvage<R: ReadAt, W: Write>(source: R, mut sink: W) -> io::Result<SalvageReport> {
    let frames = Frames::new(&source)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    sink.write_all(&STREAM_MAGIC)?;
    sink.write_all(&[STREAM_VERSION])?;
    let mut report = SalvageReport {
        kept: 0,
        repaired: Vec::new(),
        dropped: Vec::new(),
        tail_lost: false,
    };
    for (index, segment) in frames.enumerate() {
        let container = match segment {
            Ok(segment) => segment.container,
            Err(DecompressError::Unreadable(kind)) => return Err(kind.into()),
            Err(_) => {
                // Framing loss: boundaries are gone, drop the tail.
                report.tail_lost = true;
                break;
            }
        };
        // Only verified-decodable segments are worth keeping — after
        // giving parity a chance to reconstruct them.
        let RepairedDecode {
            values,
            repair,
            healed,
        } = decode_with_repair(&container);
        match values {
            Ok(_) => {
                let bytes = healed.as_deref().unwrap_or(&container);
                write_varint(&mut sink, bytes.len() as u64)?;
                sink.write_all(bytes)?;
                report.kept += 1;
                if let Some(r) = repair {
                    report.repaired.push((index, r));
                }
            }
            Err(e) => report.dropped.push((index, e)),
        }
    }
    write_varint(&mut sink, 0)?;
    sink.flush()?;
    Ok(report)
}

/// Writes `v` as the container's LEB128 varint in one `write_all`.
fn write_varint<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    let mut buf = Vec::with_capacity(10);
    crate::container::write_varint(&mut buf, v);
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Compressor;
    use crate::geometry::BlockGeometry;

    fn patterned(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 36) as f64 * 0.3).sin() * 1e-5).collect()
    }

    /// `data` framed as a stream of `segment_values`-value segments,
    /// each a v2 container or, `with_parity`, its v3 rewrite.
    fn framed(data: &[f64], segment_values: usize, with_parity: bool) -> Vec<u8> {
        let compressor = Compressor::new(BlockGeometry::new(4, 9), 1e-9);
        let mut bytes = [&STREAM_MAGIC[..], &[STREAM_VERSION]].concat();
        for segment in data.chunks(segment_values) {
            let mut container = compressor.compress(segment);
            if with_parity {
                container = crate::container::v3_of(&container);
            }
            write_varint(&mut bytes, container.len() as u64).unwrap();
            bytes.extend_from_slice(&container);
        }
        write_varint(&mut bytes, 0).unwrap();
        bytes
    }

    /// A stream of `segments` one-block segments, plus the byte ranges
    /// `[start, end)` of each segment's container within it.
    fn stream_with_segments(segments: usize, with_parity: bool) -> (Vec<u8>, Vec<(usize, usize)>) {
        let bytes = framed(&patterned(36 * segments), 36, with_parity);
        let ranges: Vec<(usize, usize)> = Frames::new(bytes.as_slice())
            .unwrap()
            .map(|s| {
                let Segment { at, container } = s.unwrap();
                (at as usize, at as usize + container.len())
            })
            .collect();
        assert_eq!(ranges.len(), segments);
        (bytes, ranges)
    }

    #[test]
    fn roundtrip_multi_segment() {
        let data = patterned(36 * 23 + 17); // partial tail everywhere
        let bytes = framed(&data, 36 * 4, false);
        let restored = StreamReader::new(bytes.as_slice())
            .unwrap()
            .read_to_vec()
            .unwrap();
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert!((a - b).abs() <= 1e-9);
        }
    }

    #[test]
    fn empty_stream() {
        let bytes = framed(&[], 36, false);
        let restored = StreamReader::new(bytes.as_slice())
            .unwrap()
            .read_to_vec()
            .unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn segment_sizes_respected() {
        let bytes = framed(&patterned(36 * 10), 36 * 3, false);
        let mut r = StreamReader::new(bytes.as_slice()).unwrap();
        let mut lens = Vec::new();
        while let Some(seg) = r.next_segment().unwrap() {
            lens.push(seg.len());
        }
        // 10 blocks at 3 per segment: 3+3+3+1 blocks => 108,108,108,36.
        assert_eq!(lens, vec![108, 108, 108, 36]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = framed(&patterned(36 * 8), 36 * 2, false);
        // Cut before the terminator.
        let cut = &bytes[..bytes.len() - 3];
        let mut r = StreamReader::new(cut).unwrap();
        let result = loop {
            match r.next_segment() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err(), "truncation must surface as an error");
    }

    #[test]
    fn version_one_has_no_commit_frames() {
        // A length of 1 is a (damaged) one-byte segment, nothing else.
        let bytes = [&STREAM_MAGIC[..], &[1, 1, 0xAB, 0]].concat();
        let segments: Vec<Segment> =
            Frames::new(bytes.as_slice()).unwrap().map(Result::unwrap).collect();
        assert_eq!(segments, vec![Segment { at: 7, container: vec![0xAB] }]);
    }

    #[test]
    fn damaged_length_varint() {
        let next = |varint: &[u8]| {
            let bytes = [&STREAM_MAGIC[..], &[STREAM_VERSION], varint].concat();
            StreamReader::new(bytes.as_slice()).unwrap().next_segment()
        };
        let overflow = DecompressError::corrupt("varint overflow");
        assert_eq!(next(&[0xff; 10]), Err(overflow));
        assert_eq!(next(&[0xff; 9]), Err(DecompressError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            StreamReader::new(&b"NOTPST\x01"[..]).err(),
            Some(DecompressError::BadMagic { format: "stream" })
        ));
        // Version 2 (commit frames between segments) is refused like
        // any unknown version.
        for version in [0u8, 2, 0x63] {
            let header = [&STREAM_MAGIC[..], &[version, 0]].concat();
            assert!(matches!(
                StreamReader::new(header.as_slice()).err(),
                Some(DecompressError::BadVersion { format: "stream", version: v }) if v == version
            ));
        }
    }

    #[test]
    fn hostile_declared_length_stays_bounded() {
        // Header + a segment claiming ~512 MiB with 3 real bytes behind
        // it: the reader must fail with Truncated after at most one
        // allocation step, not reserve the declared size.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STREAM_MAGIC);
        bytes.push(STREAM_VERSION);
        write_varint(&mut bytes, 512 << 20).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = StreamReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.next_segment().unwrap_err(), DecompressError::Truncated);
        // And a length over the hard ceiling is rejected outright.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STREAM_MAGIC);
        bytes.push(STREAM_VERSION);
        write_varint(&mut bytes, (2u64 << 30) + 1).unwrap();
        let mut r = StreamReader::new(bytes.as_slice()).unwrap();
        assert!(matches!(
            r.next_segment().unwrap_err(),
            DecompressError::Corrupt { .. }
        ));
    }

    #[test]
    fn skip_reader_repairs_damaged_segment_in_flight() {
        let segments = 16;
        let (mut bytes, ranges) = stream_with_segments(segments, true);
        let clean: Vec<Vec<f64>> = {
            let mut r = StreamReader::new(bytes.as_slice()).unwrap();
            std::iter::from_fn(|| r.next_segment().unwrap()).collect()
        };
        // Flip one bit inside segment 7's first block payload: repairable
        // from the container's parity section.
        let (start, _) = ranges[7];
        let header = crate::container::parse_header(&bytes[start..]).unwrap();
        bytes[start + header.blocks_start + 8] ^= 0x04;

        let mut r = StreamReader::new(bytes.as_slice()).unwrap();
        let mut repaired = Vec::new();
        while let Some(outcome) = r.next_segment_or_skip().unwrap() {
            let idx = outcome.index;
            if outcome.was_repaired() {
                repaired.push(idx);
            }
            assert_eq!(
                outcome.values.as_ref().expect("every segment recovers"),
                &clean[idx],
                "segment {idx} must be bit-exact"
            );
        }
        assert_eq!(repaired, vec![7], "exactly segment 7 needed repair");
    }

    #[test]
    fn skip_reader_drops_damage_when_parity_disabled() {
        let segments = 16;
        let (mut bytes, ranges) = stream_with_segments(segments, false);
        let clean: Vec<Vec<f64>> = {
            let mut r = StreamReader::new(bytes.as_slice()).unwrap();
            std::iter::from_fn(|| r.next_segment().unwrap()).collect()
        };
        // Flip one bit in segment 7's payload (inside a block payload,
        // well past the container header).
        let (start, end) = ranges[7];
        bytes[(start + end) / 2] ^= 0x04;

        let mut r = StreamReader::new(bytes.as_slice()).unwrap();
        let mut recovered = Vec::new();
        let mut damaged = Vec::new();
        while let Some(outcome) = r.next_segment_or_skip().unwrap() {
            match outcome.values {
                Ok(v) => recovered.push((outcome.index, v)),
                Err(e) => damaged.push((outcome.index, e)),
            }
        }
        assert_eq!(damaged.len(), 1, "exactly one damaged segment");
        assert_eq!(damaged[0].0, 7);
        assert_eq!(recovered.len(), segments - 1);
        for (idx, values) in &recovered {
            assert_eq!(
                values, &clean[*idx],
                "undamaged segment {idx} must be bit-exact"
            );
        }
    }

    #[test]
    fn salvage_repairs_damaged_segment_to_original_bytes() {
        let segments = 16;
        let (bytes, ranges) = stream_with_segments(segments, true);
        let mut damaged = bytes.clone();
        let (start, end) = ranges[3];
        damaged[(start + end) / 2] ^= 0x40;

        let mut out = Vec::new();
        let report = salvage(damaged.as_slice(), &mut out).unwrap();
        assert_eq!(report.kept, segments, "nothing dropped: parity repairs");
        assert!(report.dropped.is_empty());
        assert_eq!(report.repaired.len(), 1);
        assert_eq!(report.repaired[0].0, 3);
        assert!(!report.tail_lost);
        assert!(report.is_lossless());
        assert!(!report.is_clean(), "a repair means the source was damaged");

        // Repair is byte-exact: the salvaged stream equals the stream as
        // originally written, flip undone.
        assert_eq!(out, bytes);

        // Salvaging the repaired output again is a clean no-op.
        let mut out2 = Vec::new();
        let report2 = salvage(out.as_slice(), &mut out2).unwrap();
        assert!(report2.is_clean());
        assert_eq!(out, out2);
    }

    #[test]
    fn salvage_keeps_intact_segments_verbatim() {
        // Parity-free stream: damage is dropped, not repaired.
        let segments = 16;
        let (mut bytes, ranges) = stream_with_segments(segments, false);
        let original_segment_bytes: Vec<Vec<u8>> = ranges
            .iter()
            .map(|&(s, e)| bytes[s..e].to_vec())
            .collect();
        let (start, end) = ranges[3];
        bytes[(start + end) / 2] ^= 0x40;

        let mut out = Vec::new();
        let report = salvage(bytes.as_slice(), &mut out).unwrap();
        assert_eq!(report.kept, segments - 1);
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].0, 3);
        assert!(report.repaired.is_empty());
        assert!(!report.tail_lost);
        assert!(!report.is_clean());

        // The salvaged stream is valid, and every kept segment's bytes
        // match the original exactly.
        let mut r = StreamReader::new(out.as_slice()).unwrap();
        let mut kept_payloads = Vec::new();
        while let Some(container) = r.next_segment_bytes().unwrap() {
            kept_payloads.push(container);
        }
        let expected: Vec<&Vec<u8>> = original_segment_bytes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, b)| b)
            .collect();
        assert_eq!(kept_payloads.len(), expected.len());
        for (got, want) in kept_payloads.iter().zip(expected) {
            assert_eq!(got, want, "salvage must copy verbatim");
        }

        // Salvaging an already-clean salvage output is a no-op.
        let mut out2 = Vec::new();
        let report2 = salvage(out.as_slice(), &mut out2).unwrap();
        assert!(report2.is_clean());
        assert_eq!(out, out2);
    }

    #[test]
    fn salvage_truncated_tail() {
        let (bytes, ranges) = stream_with_segments(4, true);
        // Cut mid-way through segment 2's payload.
        let cut = &bytes[..(ranges[2].0 + ranges[2].1) / 2];
        let mut out = Vec::new();
        let report = salvage(cut, &mut out).unwrap();
        assert_eq!(report.kept, 2);
        assert!(report.tail_lost);
        // Output is still a valid, terminated stream.
        let restored = StreamReader::new(out.as_slice())
            .unwrap()
            .read_to_vec()
            .unwrap();
        assert_eq!(restored.len(), 36 * 2);
    }

    #[test]
    fn salvage_rejects_non_streams() {
        let mut out = Vec::new();
        let err = salvage(&b"not a stream at all"[..], &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let path = std::env::temp_dir().join(format!("pastri-stream-{}.pstrs", std::process::id()));
        let data = patterned(36 * 5 + 11);
        std::fs::write(&path, framed(&data, 36 * 2, false)).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let restored = StreamReader::new(file)
            .unwrap()
            .read_to_vec()
            .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert!((a - b).abs() <= 1e-9);
        }
    }
}
