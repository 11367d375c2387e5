//! The PaSTRI stream format, decode-only: the layout of the golden
//! fixtures (`tests/golden/v1_stream.pstrs`, `v3_stream.pstrs`). New
//! durable output goes to the block store (`eri-store`), which writes
//! as it goes, commits in-band and resumes after a crash; streams are
//! kept so the fixtures still read and verify.
//!
//! Layout (version 1): the ASCII magic `PSTRS` + version byte, then a
//! sequence of *segments*, each a varint byte length followed by a
//! complete standalone PaSTRI container, then a zero varint as the
//! terminator. Any other version byte is [`DecompressError::BadVersion`].
//!
//! [`Frames`] is the one walker over the framing, and [`crate::decompress`]
//! decodes each container it yields. Segments are independently
//! decodable, so memory never exceeds one segment.
//!
//! Integrity comes from the embedded containers: each segment payload is
//! a container carrying its own header and per-block CRC32s, so a
//! flipped bit inside a segment is detected there. Reading is strict:
//! the first damaged segment, or damage to the framing itself (a length
//! varint or a truncated tail), fails the read. Nothing skips or
//! salvages past damage.
//!
//! ```
//! use pastri::{BlockGeometry, Compressor};
//! use pastri::stream::Frames;
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
//! let mut restored = Vec::new();
//! for segment in Frames::new(bytes.as_slice()).unwrap() {
//!     restored.extend(pastri::decompress(&segment.unwrap().container).unwrap());
//! }
//! assert_eq!(restored.len(), 200);
//! ```

use std::io;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{decompress, write_varint, Compressor};
    use crate::geometry::BlockGeometry;

    fn patterned(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 36) as f64 * 0.3).sin() * 1e-5).collect()
    }

    /// `data` framed as a stream of `segment_values`-value segments,
    /// each a v2 container.
    fn framed(data: &[f64], segment_values: usize) -> Vec<u8> {
        let compressor = Compressor::new(BlockGeometry::new(4, 9), 1e-9);
        let mut bytes = [&STREAM_MAGIC[..], &[STREAM_VERSION]].concat();
        for segment in data.chunks(segment_values) {
            let container = compressor.compress(segment);
            write_varint(&mut bytes, container.len() as u64);
            bytes.extend_from_slice(&container);
        }
        write_varint(&mut bytes, 0);
        bytes
    }

    /// Each segment's values in order, or the first error: the framing's
    /// or a container's.
    fn segments<R: ReadAt>(source: R) -> Result<Vec<Vec<f64>>, DecompressError> {
        Frames::new(source)?
            .map(|segment| decompress(&segment?.container))
            .collect()
    }

    /// Every segment's values, concatenated.
    fn read_to_vec<R: ReadAt>(source: R) -> Result<Vec<f64>, DecompressError> {
        Ok(segments(source)?.concat())
    }

    #[test]
    fn roundtrip_multi_segment() {
        let data = patterned(36 * 23 + 17); // partial tail everywhere
        let bytes = framed(&data, 36 * 4);
        let restored = read_to_vec(bytes.as_slice()).unwrap();
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert!((a - b).abs() <= 1e-9);
        }
    }

    #[test]
    fn empty_stream() {
        let bytes = framed(&[], 36);
        assert!(read_to_vec(bytes.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn segment_sizes_respected() {
        let bytes = framed(&patterned(36 * 10), 36 * 3);
        let lens: Vec<usize> = segments(bytes.as_slice()).unwrap().iter().map(Vec::len).collect();
        // 10 blocks at 3 per segment: 3+3+3+1 blocks => 108,108,108,36.
        assert_eq!(lens, vec![108, 108, 108, 36]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = framed(&patterned(36 * 8), 36 * 2);
        // Cut before the terminator.
        let cut = &bytes[..bytes.len() - 3];
        assert!(read_to_vec(cut).is_err(), "truncation must surface as an error");
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
            Frames::new(bytes.as_slice()).unwrap().next()
        };
        let overflow = DecompressError::corrupt("varint overflow");
        assert_eq!(next(&[0xff; 10]), Some(Err(overflow)));
        assert_eq!(next(&[0xff; 9]), Some(Err(DecompressError::Truncated)));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Frames::new(&b"NOTPST\x01"[..]).err(),
            Some(DecompressError::BadMagic { format: "stream" })
        ));
        // Version 2 (commit frames between segments) is refused like
        // any unknown version.
        for version in [0u8, 2, 0x63] {
            let header = [&STREAM_MAGIC[..], &[version, 0]].concat();
            assert!(matches!(
                Frames::new(header.as_slice()).err(),
                Some(DecompressError::BadVersion { format: "stream", version: v }) if v == version
            ));
        }
    }

    #[test]
    fn hostile_declared_length_stays_bounded() {
        // Header + a segment claiming ~512 MiB with 3 real bytes behind
        // it: the walker must fail with Truncated before it allocates
        // the declared size.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STREAM_MAGIC);
        bytes.push(STREAM_VERSION);
        write_varint(&mut bytes, 512 << 20);
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut frames = Frames::new(bytes.as_slice()).unwrap();
        assert_eq!(frames.next(), Some(Err(DecompressError::Truncated)));
        // And a length over the hard ceiling is rejected outright.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STREAM_MAGIC);
        bytes.push(STREAM_VERSION);
        write_varint(&mut bytes, (2u64 << 30) + 1);
        let mut frames = Frames::new(bytes.as_slice()).unwrap();
        assert!(matches!(frames.next(), Some(Err(DecompressError::Corrupt { .. }))));
    }

    /// Reading is strict: the segments before a damaged one decode
    /// bit-exact, and the damaged one fails the read.
    #[test]
    fn damaged_segment_fails_the_read_after_intact_ones() {
        let bytes = framed(&patterned(36 * 16), 36);
        let clean = read_to_vec(bytes.as_slice()).unwrap();
        // Flip one bit in segment 7's block payload, well past the
        // container header.
        let segment = Frames::new(bytes.as_slice()).unwrap().nth(7).unwrap().unwrap();
        let mut damaged = bytes.clone();
        damaged[segment.at as usize + segment.container.len() / 2] ^= 0x04;

        let mut frames = Frames::new(damaged.as_slice()).unwrap();
        for i in 0..7 {
            let values = decompress(&frames.next().unwrap().unwrap().container).unwrap();
            assert_eq!(values, clean[36 * i..36 * (i + 1)], "segment {i} must be bit-exact");
        }
        assert!(matches!(
            decompress(&frames.next().unwrap().unwrap().container),
            Err(DecompressError::ChecksumMismatch { block: Some(0), .. })
        ));
        assert!(matches!(
            read_to_vec(damaged.as_slice()),
            Err(DecompressError::ChecksumMismatch { block: Some(0), .. })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let path = std::env::temp_dir().join(format!("pastri-stream-{}.pstrs", std::process::id()));
        let data = patterned(36 * 5 + 11);
        std::fs::write(&path, framed(&data, 36 * 2)).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let restored = read_to_vec(file).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert!((a - b).abs() <= 1e-9);
        }
    }
}
