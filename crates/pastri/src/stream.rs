//! Streaming compression over `std::io` — bounded memory for datasets
//! that do not fit in RAM (the paper's production files are hundreds of
//! GB; Sec. III motivates dumping them to a parallel file system as they
//! are produced).
//!
//! Wire format: the ASCII magic `PSTRS` + version byte, then a sequence
//! of *segments* — each a varint byte length followed by a complete
//! standalone PaSTRI container of up to `blocks_per_segment` blocks — and
//! a zero-length terminator. Segments are independently decodable, so a
//! reader can fan them out across threads or resume after a partial
//! read; memory never exceeds one segment each way.
//!
//! Two writers produce this format: the sequential [`StreamWriter`] and
//! [`DurableStreamWriter`](crate::durable_stream::DurableStreamWriter),
//! which compresses whole batches of segments on the rayon pool and
//! journals checkpoints. Their outputs are byte-identical at any thread
//! count, so the choice is about crash safety and throughput, not bytes.
//!
//! Integrity comes from the embedded containers: each segment payload is
//! a v2 container carrying its own header and per-block CRC32s, so a
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
//! use pastri::stream::{StreamWriter, StreamReader};
//!
//! let compressor = Compressor::new(BlockGeometry::new(4, 9), 1e-9);
//! let mut sink = Vec::new();
//! let mut w = StreamWriter::new(&mut sink, compressor, 8).unwrap();
//! for chunk in [[0.25f64; 100], [0.5; 100]] {
//!     w.write_values(&chunk).unwrap();
//! }
//! w.finish().unwrap();
//!
//! let mut r = StreamReader::new(sink.as_slice()).unwrap();
//! let mut restored = Vec::new();
//! while let Some(seg) = r.next_segment().unwrap() {
//!     restored.extend(seg);
//! }
//! assert_eq!(restored.len(), 200);
//! ```

use std::io::{self, Read, Write};

use crate::container::Compressor;
use crate::error::DecompressError;

pub(crate) const STREAM_MAGIC: [u8; 5] = *b"PSTRS";
pub(crate) const STREAM_VERSION: u8 = 1;

/// Declared-length sanity ceiling for one segment (1 GiB).
const MAX_SEGMENT_BYTES: usize = 1 << 30;
/// Segment buffers grow in steps of at most this much, so a hostile
/// length field costs at most one wasted step before the short read
/// surfaces — never a multi-GiB up-front allocation.
const SEGMENT_ALLOC_STEP: usize = 4 << 20;

/// Streaming compressor: feeds values in, emits framed containers.
pub struct StreamWriter<W: Write> {
    sink: W,
    compressor: Compressor,
    /// Pending raw values (less than one segment).
    buffer: Vec<f64>,
    segment_values: usize,
    started: bool,
}

impl<W: Write> StreamWriter<W> {
    /// Creates a writer flushing whole segments of
    /// `blocks_per_segment` blocks.
    ///
    /// # Errors
    /// `InvalidInput` if `blocks_per_segment` is zero.
    pub fn new(sink: W, compressor: Compressor, blocks_per_segment: usize) -> io::Result<Self> {
        if blocks_per_segment == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "blocks_per_segment must be at least 1",
            ));
        }
        let segment_values = compressor.geometry().block_size() * blocks_per_segment;
        Ok(Self {
            sink,
            compressor,
            buffer: Vec::with_capacity(segment_values),
            segment_values,
            started: false,
        })
    }

    /// Appends values to the stream, flushing any full segments.
    ///
    /// # Errors
    /// Any I/O error from the sink.
    pub fn write_values(&mut self, values: &[f64]) -> io::Result<()> {
        self.buffer.extend_from_slice(values);
        while self.buffer.len() >= self.segment_values {
            let rest = self.buffer.split_off(self.segment_values);
            let full = std::mem::replace(&mut self.buffer, rest);
            self.emit_segment(&full)?;
        }
        Ok(())
    }

    /// Flushes the final partial segment and writes the terminator.
    /// Returns the underlying sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.ensure_header()?;
        if !self.buffer.is_empty() {
            let tail = std::mem::take(&mut self.buffer);
            self.emit_segment(&tail)?;
        }
        write_varint(&mut self.sink, 0)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.started {
            self.sink.write_all(&STREAM_MAGIC)?;
            self.sink.write_all(&[STREAM_VERSION])?;
            self.started = true;
        }
        Ok(())
    }

    fn emit_segment(&mut self, values: &[f64]) -> io::Result<()> {
        self.ensure_header()?;
        let container = self.compressor.compress(values);
        write_varint(&mut self.sink, container.len() as u64)?;
        self.sink.write_all(&container)
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
pub struct StreamReader<R: Read> {
    source: R,
    done: bool,
    next_index: usize,
}

impl<R: Read> StreamReader<R> {
    /// Validates the stream header.
    pub fn new(mut source: R) -> Result<Self, DecompressError> {
        let mut magic = [0u8; 6];
        read_exact_or_truncated(&mut source, &mut magic)?;
        if magic[..5] != STREAM_MAGIC {
            return Err(DecompressError::BadMagic);
        }
        if magic[5] != STREAM_VERSION {
            return Err(DecompressError::BadVersion(magic[5]));
        }
        Ok(Self {
            source,
            done: false,
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
        if self.done {
            return Ok(None);
        }
        let len = read_varint(&mut self.source)? as usize;
        if len == 0 {
            self.done = true;
            return Ok(None);
        }
        if len > MAX_SEGMENT_BYTES {
            return Err(DecompressError::corrupt("segment implausibly large"));
        }
        let container = read_segment_bytes(&mut self.source, len)?;
        self.next_index += 1;
        Ok(Some(container))
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
        self.dropped.is_empty() && self.repaired.is_empty() && !self.tail_lost
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
/// segments are written as their canonical (originally-written) bytes.
/// The output is always a well-formed, terminated stream.
///
/// # Errors
/// `InvalidData` if `source` is not a PaSTRI stream at all (bad magic or
/// version); otherwise any I/O error from reading or writing. Damage
/// *inside* the stream is not an error — it is reported in the
/// [`SalvageReport`].
pub fn salvage<R: Read, W: Write>(source: R, mut sink: W) -> io::Result<SalvageReport> {
    let mut reader = StreamReader::new(source)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    sink.write_all(&STREAM_MAGIC)?;
    sink.write_all(&[STREAM_VERSION])?;
    let mut report = SalvageReport {
        kept: 0,
        repaired: Vec::new(),
        dropped: Vec::new(),
        tail_lost: false,
    };
    loop {
        let index = reader.next_index;
        match reader.next_segment_bytes() {
            Ok(None) => break,
            Ok(Some(container)) => {
                // Only verified-decodable segments are worth keeping —
                // after giving parity a chance to reconstruct them.
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
            Err(_) => {
                // Framing loss: boundaries are gone, drop the tail.
                report.tail_lost = true;
                break;
            }
        }
    }
    write_varint(&mut sink, 0)?;
    sink.flush()?;
    Ok(report)
}

/// Writes `v` as the container's LEB128 varint in one `write_all`.
pub(crate) fn write_varint<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    let mut buf = Vec::with_capacity(10);
    crate::container::write_varint(&mut buf, v);
    w.write_all(&buf)
}

/// Reads one varint: at most 10 bytes, through the first without the
/// continuation bit, decoded by the container's reader so both share
/// one overflow rule.
fn read_varint<R: Read>(r: &mut R) -> Result<u64, DecompressError> {
    let mut buf = [0u8; 10];
    let mut n = 0;
    while n < buf.len() {
        read_exact_or_truncated(r, &mut buf[n..=n])?;
        n += 1;
        if buf[n - 1] & 0x80 == 0 {
            break;
        }
    }
    crate::container::read_varint(&buf[..n], &mut 0)
}

/// Reads exactly `len` bytes, growing the buffer in bounded steps so the
/// allocation tracks the bytes actually present: a hostile declared
/// length against a short source fails after at most one extra step
/// (≤ 4 MiB), not after reserving the full declared size.
fn read_segment_bytes<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, DecompressError> {
    let mut buf = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let step = remaining.min(SEGMENT_ALLOC_STEP);
        let old = buf.len();
        buf.resize(old + step, 0);
        read_exact_or_truncated(r, &mut buf[old..])?;
        remaining -= step;
    }
    Ok(buf)
}

fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), DecompressError> {
    r.read_exact(buf).map_err(|_| DecompressError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BlockGeometry;

    fn compressor() -> Compressor {
        Compressor::new(BlockGeometry::new(4, 9), 1e-9)
    }

    /// Parity-free compressor: for tests pinning the pre-v3
    /// detect-and-drop semantics.
    fn compressor_no_parity() -> Compressor {
        Compressor::with_options(
            BlockGeometry::new(4, 9),
            1e-9,
            crate::container::CompressorOptions {
                parity: crate::container::ParityConfig::NONE,
                ..Default::default()
            },
        )
    }

    fn patterned(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 36) as f64 * 0.3).sin() * 1e-5).collect()
    }

    /// A finished stream of `segments` full segments, one block each,
    /// plus the byte ranges `[start, end)` of each segment's container
    /// payload within the returned buffer.
    fn stream_with_segments(segments: usize) -> (Vec<u8>, Vec<(usize, usize)>) {
        stream_with_segments_using(segments, compressor())
    }

    fn stream_with_segments_using(
        segments: usize,
        c: Compressor,
    ) -> (Vec<u8>, Vec<(usize, usize)>) {
        let data = patterned(36 * segments);
        let mut sink = Vec::new();
        let mut w = StreamWriter::new(&mut sink, c, 1).unwrap();
        w.write_values(&data).unwrap();
        w.finish().unwrap();
        // Re-walk the framing to locate each payload.
        let mut ranges = Vec::new();
        let mut pos = 6; // magic + version
        loop {
            let mut p = pos;
            let len = {
                let mut slice = &sink[p..];
                let before = slice.len();
                let v = read_varint(&mut slice).unwrap() as usize;
                p += before - slice.len();
                v
            };
            if len == 0 {
                break;
            }
            ranges.push((p, p + len));
            pos = p + len;
        }
        assert_eq!(ranges.len(), segments);
        (sink, ranges)
    }

    #[test]
    fn roundtrip_multi_segment() {
        let data = patterned(36 * 23 + 17); // partial tail everywhere
        let mut sink = Vec::new();
        let mut w = StreamWriter::new(&mut sink, compressor(), 4).unwrap();
        // Feed in awkward chunk sizes.
        for chunk in data.chunks(77) {
            w.write_values(chunk).unwrap();
        }
        w.finish().unwrap();
        let restored = StreamReader::new(sink.as_slice())
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
        let mut sink = Vec::new();
        let w = StreamWriter::new(&mut sink, compressor(), 2).unwrap();
        w.finish().unwrap();
        let restored = StreamReader::new(sink.as_slice())
            .unwrap()
            .read_to_vec()
            .unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn zero_segment_size_is_an_error_not_a_panic() {
        let mut sink = Vec::new();
        let err = match StreamWriter::new(&mut sink, compressor(), 0) {
            Err(e) => e,
            Ok(_) => panic!("zero blocks_per_segment must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn segment_sizes_respected() {
        let data = patterned(36 * 10);
        let mut sink = Vec::new();
        let mut w = StreamWriter::new(&mut sink, compressor(), 3).unwrap();
        w.write_values(&data).unwrap();
        w.finish().unwrap();
        let mut r = StreamReader::new(sink.as_slice()).unwrap();
        let mut lens = Vec::new();
        while let Some(seg) = r.next_segment().unwrap() {
            lens.push(seg.len());
        }
        // 10 blocks at 3 per segment: 3+3+3+1 blocks => 108,108,108,36.
        assert_eq!(lens, vec![108, 108, 108, 36]);
    }

    #[test]
    fn truncation_detected() {
        let data = patterned(36 * 8);
        let mut sink = Vec::new();
        let mut w = StreamWriter::new(&mut sink, compressor(), 2).unwrap();
        w.write_values(&data).unwrap();
        w.finish().unwrap();
        // Cut before the terminator.
        let cut = &sink[..sink.len() - 3];
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
            Some(DecompressError::BadMagic)
        ));
        assert!(matches!(
            StreamReader::new(&b"PSTRS\x63"[..]).err(),
            Some(DecompressError::BadVersion(0x63))
        ));
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
        let (mut bytes, ranges) = stream_with_segments(segments);
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
        let (mut bytes, ranges) =
            stream_with_segments_using(segments, compressor_no_parity());
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
        let (bytes, ranges) = stream_with_segments(segments);
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
        // Parity-free stream: the pre-v3 drop semantics.
        let segments = 16;
        let (mut bytes, ranges) =
            stream_with_segments_using(segments, compressor_no_parity());
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
        let (bytes, ranges) = stream_with_segments(4);
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
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = StreamWriter::new(io::BufWriter::new(file), compressor(), 2).unwrap();
            w.write_values(&data).unwrap();
            w.finish().unwrap();
        }
        let file = std::fs::File::open(&path).unwrap();
        let restored = StreamReader::new(io::BufReader::new(file))
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
