//! Crash-safe, resumable stream files.
//!
//! A [`StreamWriter`] over a [`File`] commits in batches: every
//! `checkpoint_every` full segments it appends a commit frame and fsyncs
//! once, so after a crash at *any* instant the last commit whose record
//! and span verify names a prefix of the stream that is on disk
//! byte-exact. There is no sidecar file: the stream carries its own
//! commits.
//!
//! [`StreamWriter::resume`] walks the file's framing with positional
//! reads ([`committed`]), cuts it after the last verified commit
//! (discarding torn tails) and continues. The producer re-feeds its
//! input starting at [`Checkpoint::values`]; because commits land only
//! on whole-segment boundaries and segmentation is deterministic, a
//! resumed run finishes byte-identical to one that was never
//! interrupted.

use std::fs::File;
use std::io;
use std::path::Path;

use durable::{Checkpoint, CommitScan, Journaled, ReadAt, COMMIT_MAGIC};

use crate::container::Compressor;
use crate::error::DecompressError;
use crate::stream::{Frame, Frames, StreamWriter};

impl StreamWriter<File> {
    /// Starts a fresh durable stream at `path`, truncating any previous
    /// file (see [`Journaled::create`]).
    ///
    /// # Errors
    /// Any I/O error; `InvalidInput` for a zero segment or batch size.
    pub fn create(
        path: &Path,
        compressor: Compressor,
        blocks_per_segment: usize,
        checkpoint_every: usize,
    ) -> io::Result<Self> {
        Self::over(Journaled::create(path)?, compressor, blocks_per_segment, checkpoint_every)
    }

    /// Resumes an interrupted write at `path`: the file is cut after its
    /// last verified commit and the stream continues from there. With no
    /// verified commit the stream restarts from scratch.
    ///
    /// The caller must skip [`checkpoint`](Self::checkpoint)`().values`
    /// source values before feeding more data; the finished output is
    /// then byte-identical to an uninterrupted run.
    ///
    /// # Errors
    /// `InvalidData` if damage lies before a commit that verifies — a
    /// crash cannot cause that, so the file is left untouched. Any I/O
    /// error.
    pub fn resume(
        path: &Path,
        compressor: Compressor,
        blocks_per_segment: usize,
        checkpoint_every: usize,
    ) -> io::Result<Self> {
        let (out, ()) = Journaled::resume(path, |file| committed(file).map(|cp| (cp, ())))?;
        Self::over(out, compressor, blocks_per_segment, checkpoint_every)
    }
}

/// The last verified commit of the stream in `source`: its framing is
/// walked with positional reads, one frame at a time, and every frame
/// goes through a [`CommitScan`]. A missing or damaged header, or a
/// version-1 stream, leaves no framing to walk: the scan only searches
/// for a commit past it.
///
/// # Errors
/// `InvalidData` for damage inside committed bytes; any read failure
/// other than the source ending.
pub fn committed<R: ReadAt + ?Sized>(source: &R) -> io::Result<Checkpoint> {
    let mut scan = CommitScan::new(source)?;
    let mut segments = 0u64;
    let mut frames = match Frames::new(source) {
        Ok(frames) if frames.version >= 2 => frames,
        Err(DecompressError::Unreadable(kind)) => return Err(kind.into()),
        _ => return scan.finish(),
    };
    loop {
        match frames.next() {
            Some(Ok(Frame::Segment { at, container })) => {
                scan.feed(at, &container)?;
                segments += 1;
            }
            Some(Ok(Frame::Commit { at, record })) if record.starts_with(&COMMIT_MAGIC) => {
                scan.record(at, &record, segments)?;
            }
            // A commit frame without its magic is misread framing (say,
            // after a torn length varint) — unless the record names its
            // own end and seals a span that verifies: then only its
            // magic is damaged.
            Some(Ok(Frame::Commit { at, record })) => {
                scan.unmarked(at, &record)?;
                return scan.finish();
            }
            Some(Err(DecompressError::Unreadable(kind))) => return Err(kind.into()),
            _ => return scan.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BlockGeometry;
    use crate::stream::StreamReader;
    use std::path::PathBuf;

    fn compressor() -> Compressor {
        Compressor::new(BlockGeometry::new(4, 9), 1e-9)
    }

    fn patterned(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 36) as f64 * 0.3).sin() * 1e-5).collect()
    }

    fn memory_stream(data: &[f64], blocks_per_segment: usize, checkpoint_every: usize) -> Vec<u8> {
        let mut w =
            StreamWriter::new(Vec::new(), compressor(), blocks_per_segment, checkpoint_every)
                .unwrap();
        w.write_values(data).unwrap();
        w.finish().unwrap().0
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pastri-durable-{}-{name}", std::process::id()))
    }

    /// A stream file at `name` fed `fed` values of `data` and dropped
    /// without `finish` — the "crash".
    fn interrupted(name: &str, data: &[f64], fed: usize, bps: usize, every: usize) -> PathBuf {
        let path = tmp(name);
        let mut w = StreamWriter::create(&path, compressor(), bps, every).unwrap();
        w.write_values(&data[..fed]).unwrap();
        path
    }

    #[test]
    fn durable_output_is_byte_identical_to_plain_writer() {
        // Chunking never moves a byte, and a file holds what memory holds.
        let data = patterned(36 * 23 + 17);
        for checkpoint_every in [1usize, 3, 100] {
            let expected = memory_stream(&data, 2, checkpoint_every);
            let mut w = StreamWriter::new(Vec::new(), compressor(), 2, checkpoint_every).unwrap();
            for chunk in data.chunks(77) {
                w.write_values(chunk).unwrap();
            }
            let (sink, cp) = w.finish().unwrap();
            assert_eq!(sink, expected, "checkpoint_every={checkpoint_every}");
            assert_eq!(cp.values, data.len() as u64);
            assert_eq!(cp.bytes, sink.len() as u64 - 1, "terminator not committed");
            assert_eq!(committed(&sink.as_slice()).unwrap(), cp);
        }
    }

    #[test]
    fn checkpoints_land_on_batch_boundaries() {
        let data = patterned(36 * 9); // 9 one-block segments
        let mut w = StreamWriter::new(Vec::new(), compressor(), 1, 4).unwrap();
        w.write_values(&data).unwrap();
        // Two full batches of 4 committed; the 9th segment still pending.
        assert_eq!(w.checkpoint().segments, 8);
        assert_eq!(w.checkpoint().values, 36 * 8);
        let (_, cp) = w.finish().unwrap();
        assert_eq!(cp.segments, 9);
    }

    #[test]
    fn zero_checkpoint_every_is_rejected() {
        let err = match StreamWriter::new(Vec::new(), compressor(), 1, 0) {
            Err(e) => e,
            Ok(_) => panic!("zero checkpoint_every must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn file_writer_lifecycle_removes_journal_on_finish() {
        // No sidecar is ever created: the file alone carries the commits.
        let path = tmp("lifecycle.pstrs");
        let data = patterned(36 * 7 + 5);
        let mut w = StreamWriter::create(&path, compressor(), 2, 2).unwrap();
        w.write_values(&data).unwrap();
        w.finish().unwrap();
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let sidecars: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n.len() > stem.len())
            .collect();
        assert!(sidecars.is_empty(), "{sidecars:?}");
        assert_eq!(std::fs::read(&path).unwrap(), memory_stream(&data, 2, 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_write_resumes_byte_identical() {
        let data = patterned(36 * 31 + 13);
        let path = interrupted("resume.pstrs", &data, 36 * 20 + 7, 2, 3);
        let w = StreamWriter::resume(&path, compressor(), 2, 3).unwrap();
        let cp = w.checkpoint();
        assert!(cp.values > 0, "some batches must have committed");
        assert!(cp.values <= (36 * 20 + 7) as u64);
        let mut w = w;
        for chunk in data[cp.values as usize..].chunks(55) {
            w.write_values(chunk).unwrap();
        }
        let (_, finished) = w.finish().unwrap();
        assert_eq!(finished.values, data.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), memory_stream(&data, 2, 3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_torn_journal_tail_recovers() {
        // The crash tore the last commit frame: resume falls back to the
        // commit before it.
        let data = patterned(36 * 12);
        let path = interrupted("torn-commit.pstrs", &data, 36 * 7, 1, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = committed(&bytes.as_slice()).unwrap();
        assert_eq!(last.segments, 6);
        bytes.truncate(last.bytes as usize - 11);
        bytes.extend_from_slice(&[0xEE; 4]); // plus some garbage
        std::fs::write(&path, &bytes).unwrap();

        let w = StreamWriter::resume(&path, compressor(), 1, 2).unwrap();
        assert_eq!(w.checkpoint().segments, 4, "the previous whole batch");
        let skip = w.checkpoint().values as usize;
        let mut w = w;
        w.write_values(&data[skip..]).unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), memory_stream(&data, 1, 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_journal_restarts_from_scratch() {
        // Killed before the first commit: nothing to keep.
        let data = patterned(36 * 5);
        let path = interrupted("no-commit.pstrs", &data, 36, 1, 2);
        assert!(std::fs::metadata(&path).unwrap().len() == 0, "nothing written yet");
        std::fs::write(&path, b"PSTRS\x02garbage").unwrap();
        let mut w = StreamWriter::resume(&path, compressor(), 1, 2).unwrap();
        assert_eq!(w.checkpoint(), Checkpoint::default());
        w.write_values(&data).unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), memory_stream(&data, 1, 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_claiming_more_than_file_is_invalid_data() {
        // A flipped bit inside a committed segment, with a verified commit
        // after it: corruption, refused, and the file left as it was.
        let data = patterned(36 * 6);
        let path = interrupted("flipped.pstrs", &data, 36 * 6, 1, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let first = Frames::new(bytes.as_slice())
            .unwrap()
            .find_map(|f| match f.unwrap() {
                Frame::Segment { at, container } => Some(at as usize + container.len() / 2),
                Frame::Commit { .. } => None,
            })
            .unwrap();
        bytes[first] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = match StreamWriter::resume(&path, compressor(), 1, 1) {
            Err(e) => e,
            Ok(_) => panic!("damage before a verified commit must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing trimmed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn framing_damage_before_a_verified_commit_is_invalid_data() {
        // A flipped segment length varint — to another length, or to the
        // zero terminator — or a flipped header stops the walk early; the
        // commits past it still verify, so the file is refused and left
        // as it was.
        let data = patterned(36 * 6);
        let path = interrupted("framing.pstrs", &data, 36 * 6, 1, 2);
        let clean = std::fs::read(&path).unwrap();
        let varints: Vec<usize> = Frames::new(clean.as_slice())
            .unwrap()
            .filter_map(|f| match f {
                Ok(Frame::Segment { at, container }) => {
                    Some(at as usize - crate::container::varint_len(container.len() as u64))
                }
                _ => None, // commit frames, and the end of the unfinished stream
            })
            .collect();
        let header = [(0, 0x01), (5, 0x01), (5, 0x02)];
        let varints = varints.iter().take(4).flat_map(|&at| [(at, 0x02), (at, clean[at])]);
        for (at, mask) in header.into_iter().chain(varints) {
            let mut bytes = clean.clone();
            bytes[at] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            let err = match StreamWriter::resume(&path, compressor(), 1, 2) {
                Err(e) => e,
                Ok(_) => panic!("byte {at}, mask {mask:#x}: damage must be refused"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing trimmed");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_flip_in_the_last_commit_record_is_refused() {
        // The finished stream's last commit record is followed by the
        // terminator, so a flip anywhere in it — magic included — is
        // damage to committed bytes: refused, never trimmed.
        let data = patterned(36 * 8);
        let clean = memory_stream(&data, 2, 2);
        let end = committed(&clean.as_slice()).unwrap().bytes as usize;
        assert_eq!(end, clean.len() - 1, "the terminator follows the last record");
        let path = tmp("last-record.pstrs");
        for at in end - durable::RECORD_LEN..end {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            assert_eq!(
                committed(&bytes.as_slice()).unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "flip at {at}"
            );
            std::fs::write(&path, &bytes).unwrap();
            assert!(StreamWriter::resume(&path, compressor(), 2, 2).is_err(), "flip at {at}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "flip at {at}: nothing trimmed");
        }
        // Cut just after that record (no terminator yet), the same flips
        // of its magic are a torn tail: the commit before it wins.
        let torn = &clean[..end];
        let previous = committed(&torn[..end - durable::RECORD_LEN - 1]).unwrap();
        for at in end - durable::RECORD_LEN..end - durable::RECORD_LEN + 4 {
            let mut bytes = torn.to_vec();
            bytes[at] ^= 0x20;
            assert_eq!(committed(&bytes.as_slice()).unwrap(), previous, "flip at {at}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn committed_prefix_is_always_readable_mid_write() {
        let path = tmp("prefix-readable.pstrs");
        let data = patterned(36 * 10);
        let mut w = StreamWriter::create(&path, compressor(), 1, 5).unwrap();
        w.write_values(&data).unwrap();
        let cp = w.checkpoint();
        assert_eq!(cp.segments, 10);
        // Mid-write (no terminator yet), the committed prefix decodes:
        // read exactly cp.bytes and the segments are all there.
        let bytes = std::fs::read(&path).unwrap();
        let prefix = &bytes[..cp.bytes as usize];
        let mut r = StreamReader::new(prefix).unwrap();
        let mut restored = Vec::new();
        for _ in 0..cp.segments {
            restored.extend(r.next_segment().unwrap().unwrap());
        }
        assert_eq!(restored.len(), cp.values as usize);
        w.finish().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
