//! Crash-safe, resumable stream compression.
//!
//! [`DurableStreamWriter`] produces exactly the wire format of
//! [`StreamWriter`](crate::stream::StreamWriter) — byte-identical, so
//! readers cannot tell the two apart — but commits it durably in
//! checkpointed batches: every `checkpoint_every` full segments, the
//! data sink is fsync'd and a `(segments, values, bytes)` record is
//! appended to a [`durable`] checkpoint journal (itself fsync'd). The
//! write ordering — data, data fsync, journal record, journal fsync —
//! means the journal never describes bytes that could still be lost, so
//! after a crash at *any* instant the last valid journal record names a
//! prefix of the stream that is on disk byte-exact.
//!
//! [`DurableFileWriter`] binds the writer to a real file plus its
//! `<path>.journal` sidecar and adds the recovery half:
//! [`resume`](DurableFileWriter::resume) loads the last checkpoint,
//! truncates both files to their committed prefixes (discarding torn
//! tails), and continues. The producer re-feeds its input starting at
//! [`Checkpoint::values`]; because checkpoints land only on whole-
//! segment boundaries and segmentation is deterministic, a resumed run
//! finishes byte-identical to one that was never interrupted. On a
//! successful [`finish`](DurableFileWriter::finish) the journal is
//! removed — its absence next to a terminated stream is the "write
//! completed" marker.
//!
//! Batches are compressed on the rayon crew (order-preserving, one
//! segment per task), so durability and parallel throughput compose.

use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use durable::{
    fsync_dir, journal_path, parent_of, remove_journal, scan_journal, Checkpoint, JournalWriter,
    SyncWrite,
};
use rayon::ParallelSlice;

use crate::container::{varint_len, Compressor};
use crate::stream::{write_varint, STREAM_MAGIC, STREAM_VERSION};

/// A [`StreamWriter`](crate::stream::StreamWriter) whose output survives
/// crashes: segments are committed in fsync'd batches, each sealed by a
/// checkpoint journal record. Generic over [`SyncWrite`] sinks so the
/// fault harness can interpose on every byte and fsync of both files.
pub struct DurableStreamWriter<W: SyncWrite, J: SyncWrite> {
    sink: W,
    journal: JournalWriter<J>,
    compressor: Compressor,
    /// Pending raw values (less than one segment).
    buffer: Vec<f64>,
    /// Full segments accumulated toward the next checkpoint.
    pending: Vec<Vec<f64>>,
    segment_values: usize,
    checkpoint_every: usize,
    /// Physical bytes written to the sink so far (committed or not).
    written_bytes: u64,
    committed: Checkpoint,
    started: bool,
}

impl<W: SyncWrite, J: SyncWrite> DurableStreamWriter<W, J> {
    /// A fresh durable stream: `journal_sink` receives the journal from
    /// its magic onward.
    ///
    /// # Errors
    /// `InvalidInput` if `blocks_per_segment` or `checkpoint_every` is
    /// zero.
    pub fn new(
        sink: W,
        journal_sink: J,
        compressor: Compressor,
        blocks_per_segment: usize,
        checkpoint_every: usize,
    ) -> io::Result<Self> {
        Self::resume(
            sink,
            JournalWriter::new(journal_sink),
            compressor,
            blocks_per_segment,
            checkpoint_every,
            Checkpoint::default(),
        )
    }

    /// Continues a stream whose committed prefix is already in `sink`.
    /// The caller is responsible for having truncated the sink to
    /// `committed.bytes` and positioned it there, and for skipping
    /// `committed.values` source values before writing more.
    pub(crate) fn resume(
        sink: W,
        journal: JournalWriter<J>,
        compressor: Compressor,
        blocks_per_segment: usize,
        checkpoint_every: usize,
        committed: Checkpoint,
    ) -> io::Result<Self> {
        if blocks_per_segment == 0 || checkpoint_every == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "blocks_per_segment and checkpoint_every must be at least 1",
            ));
        }
        let segment_values = compressor.geometry().block_size() * blocks_per_segment;
        Ok(Self {
            sink,
            journal,
            compressor,
            buffer: Vec::with_capacity(segment_values),
            pending: Vec::new(),
            segment_values,
            checkpoint_every,
            written_bytes: committed.bytes,
            started: committed.bytes > 0,
            committed,
        })
    }

    /// The last durable checkpoint: everything at or before it survives
    /// a crash.
    #[must_use]
    pub(crate) fn checkpoint(&self) -> Checkpoint {
        self.committed
    }

    /// Appends values, committing a checkpointed batch whenever
    /// `checkpoint_every` full segments have accumulated.
    pub fn write_values(&mut self, values: &[f64]) -> io::Result<()> {
        self.buffer.extend_from_slice(values);
        while self.buffer.len() >= self.segment_values {
            let rest = self.buffer.split_off(self.segment_values);
            let full = std::mem::replace(&mut self.buffer, rest);
            self.pending.push(full);
            if self.pending.len() >= self.checkpoint_every {
                self.commit_batch()?;
            }
        }
        Ok(())
    }

    /// Commits the tail (as its own checkpointed batch), writes the
    /// terminator, and syncs. Returns the sinks and the final
    /// checkpoint; the terminator byte is deliberately *not* journaled —
    /// recovery truncates back to the checkpoint and a re-run of
    /// `finish` rewrites it, which is what makes a crash between
    /// terminator and journal-removal harmless.
    pub fn finish(mut self) -> io::Result<(W, J, Checkpoint)> {
        if !self.buffer.is_empty() {
            let tail = std::mem::take(&mut self.buffer);
            self.pending.push(tail);
        }
        self.commit_batch()?;
        self.ensure_header()?;
        write_varint(&mut self.sink, 0)?;
        self.sink.sync()?;
        Ok((self.sink, self.journal.into_inner(), self.committed))
    }

    /// Writes, fsyncs, and journals every pending segment as one batch.
    fn commit_batch(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let _span = telemetry::span("durable.commit_batch");
        self.ensure_header()?;
        let batch = std::mem::take(&mut self.pending);
        let compressor = self.compressor;
        // Order-preserving parallel compression; `compress` is
        // byte-identical to the sequential writer's path.
        let containers: Vec<Vec<u8>> = batch
            .par_iter()
            .map(|seg| compressor.compress(seg))
            .collect();
        for container in &containers {
            write_varint(&mut self.sink, container.len() as u64)?;
            self.sink.write_all(container)?;
            self.written_bytes += (varint_len(container.len() as u64) + container.len()) as u64;
        }
        // Data must be durable before the journal may claim it.
        self.sink.sync()?;
        self.committed = Checkpoint {
            segments: self.committed.segments + batch.len() as u64,
            values: self.committed.values
                + batch.iter().map(|s| s.len() as u64).sum::<u64>(),
            bytes: self.written_bytes,
        };
        self.journal.record(self.committed)
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.started {
            self.sink.write_all(&STREAM_MAGIC)?;
            self.sink.write_all(&[STREAM_VERSION])?;
            self.written_bytes += STREAM_MAGIC.len() as u64 + 1;
            self.started = true;
        }
        Ok(())
    }
}

/// [`DurableStreamWriter`] bound to a file and its `<path>.journal`
/// sidecar, with crash recovery.
pub struct DurableFileWriter {
    inner: DurableStreamWriter<std::fs::File, std::fs::File>,
    path: PathBuf,
}

impl DurableFileWriter {
    /// Starts a fresh durable stream at `path`, truncating any previous
    /// artifact and journal. The parent directory is fsync'd once both
    /// files exist, so a later checkpoint never names files whose
    /// directory entries a power loss could still drop.
    pub fn create(
        path: &Path,
        compressor: Compressor,
        blocks_per_segment: usize,
        checkpoint_every: usize,
    ) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let jp = journal_path(path);
        let journal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&jp)?;
        fsync_dir(&parent_of(path))?;
        let inner = DurableStreamWriter::new(
            file,
            journal,
            compressor,
            blocks_per_segment,
            checkpoint_every,
        )?;
        Ok(Self {
            inner,
            path: path.to_path_buf(),
        })
    }

    /// Resumes an interrupted write at `path`: loads the last valid
    /// journal record, truncates the artifact to its committed prefix
    /// and the journal to its valid prefix (both fsync'd), and
    /// continues. With no usable journal the stream restarts from
    /// scratch.
    ///
    /// The caller must skip [`checkpoint`](Self::checkpoint)`().values`
    /// source values before feeding more data; the finished output is
    /// then byte-identical to an uninterrupted run.
    ///
    /// # Errors
    /// `InvalidData` if the journal claims more durable bytes than the
    /// artifact holds — that means the pair was tampered with or split,
    /// since the write ordering makes it impossible from a crash.
    pub fn resume(
        path: &Path,
        compressor: Compressor,
        blocks_per_segment: usize,
        checkpoint_every: usize,
    ) -> io::Result<Self> {
        let jp = journal_path(path);
        let journal_bytes = match std::fs::read(&jp) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (cp, valid_len) = scan_journal(&journal_bytes);
        let cp = cp.unwrap_or_default();

        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // committed prefix is kept; set_len below trims the tail
            .read(true)
            .write(true)
            .open(path)?;
        let on_disk = file.metadata()?.len();
        if on_disk < cp.bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal claims {} durable bytes but {} holds only {on_disk}",
                    cp.bytes,
                    path.display()
                ),
            ));
        }
        // Discard everything past the committed prefix (uncommitted
        // tail, possibly torn by the crash).
        if on_disk > cp.bytes || journal_bytes.len() > valid_len {
            telemetry::counter_add("durable.resume_truncations", 1);
        }
        file.set_len(cp.bytes)?;
        file.sync_all()?;
        file.seek(SeekFrom::Start(cp.bytes))?;

        let mut jfile = OpenOptions::new()
            .create(true)
            .truncate(false) // valid records are kept; set_len below drops a torn tail
            .read(true)
            .write(true)
            .open(&jp)?;
        // Drop any torn tail record so future appends stay aligned.
        jfile.set_len(valid_len as u64)?;
        jfile.sync_all()?;
        jfile.seek(SeekFrom::Start(valid_len as u64))?;
        fsync_dir(&parent_of(path))?;

        let journal = if valid_len == 0 {
            JournalWriter::new(jfile)
        } else {
            JournalWriter::resume(jfile)
        };
        let inner = DurableStreamWriter::resume(
            file,
            journal,
            compressor,
            blocks_per_segment,
            checkpoint_every,
            cp,
        )?;
        Ok(Self {
            inner,
            path: path.to_path_buf(),
        })
    }

    /// The last durable checkpoint (what a crash right now would
    /// preserve, and how many source values a resume would skip).
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        self.inner.checkpoint()
    }

    /// See [`DurableStreamWriter::write_values`].
    pub fn write_values(&mut self, values: &[f64]) -> io::Result<()> {
        self.inner.write_values(values)
    }

    /// Finishes the stream and removes the journal — the durable marker
    /// that the artifact is complete. Returns the final checkpoint.
    pub fn finish(self) -> io::Result<Checkpoint> {
        let (file, journal, cp) = self.inner.finish()?;
        drop(file);
        drop(journal);
        remove_journal(&self.path)?;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BlockGeometry;
    use crate::stream::{StreamReader, StreamWriter};

    fn compressor() -> Compressor {
        Compressor::new(BlockGeometry::new(4, 9), 1e-9)
    }

    fn patterned(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 36) as f64 * 0.3).sin() * 1e-5).collect()
    }

    fn sequential_stream(data: &[f64], blocks_per_segment: usize) -> Vec<u8> {
        let mut sink = Vec::new();
        let mut w = StreamWriter::new(&mut sink, compressor(), blocks_per_segment).unwrap();
        w.write_values(data).unwrap();
        w.finish().unwrap();
        sink
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pastri-durable-{}-{name}", std::process::id()))
    }

    #[test]
    fn durable_output_is_byte_identical_to_plain_writer() {
        let data = patterned(36 * 23 + 17);
        let expected = sequential_stream(&data, 2);
        for checkpoint_every in [1usize, 3, 100] {
            let mut w = DurableStreamWriter::new(
                Vec::new(),
                Vec::new(),
                compressor(),
                2,
                checkpoint_every,
            )
            .unwrap();
            for chunk in data.chunks(77) {
                w.write_values(chunk).unwrap();
            }
            let (sink, journal, cp) = w.finish().unwrap();
            assert_eq!(sink, expected, "checkpoint_every={checkpoint_every}");
            assert_eq!(cp.values, data.len() as u64);
            assert_eq!(cp.bytes, sink.len() as u64 - 1, "terminator not journaled");
            // The journal's last record matches the returned checkpoint.
            assert_eq!(durable::parse_last_checkpoint(&journal), Some(cp));
        }
    }

    #[test]
    fn checkpoints_land_on_batch_boundaries() {
        let data = patterned(36 * 9); // 9 one-block segments
        let mut w =
            DurableStreamWriter::new(Vec::new(), Vec::new(), compressor(), 1, 4).unwrap();
        w.write_values(&data).unwrap();
        // Two full batches of 4 committed; the 9th segment still pending.
        assert_eq!(w.checkpoint().segments, 8);
        assert_eq!(w.checkpoint().values, 36 * 8);
        let (_, _, cp) = w.finish().unwrap();
        assert_eq!(cp.segments, 9);
    }

    #[test]
    fn zero_checkpoint_every_is_rejected() {
        let err = match DurableStreamWriter::new(Vec::new(), Vec::new(), compressor(), 1, 0) {
            Err(e) => e,
            Ok(_) => panic!("zero checkpoint_every must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn file_writer_lifecycle_removes_journal_on_finish() {
        let path = tmp("lifecycle.pstrs");
        let data = patterned(36 * 7 + 5);
        let mut w = DurableFileWriter::create(&path, compressor(), 2, 2).unwrap();
        w.write_values(&data).unwrap();
        assert!(journal_path(&path).exists(), "journal alive mid-write");
        w.finish().unwrap();
        assert!(!journal_path(&path).exists(), "journal removed on finish");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, sequential_stream(&data, 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_write_resumes_byte_identical() {
        let path = tmp("resume.pstrs");
        let data = patterned(36 * 31 + 13);
        let expected = sequential_stream(&data, 2);

        // First attempt: feed a prefix, then "crash" (drop without
        // finish). Un-checkpointed bytes are left dangling in the file.
        let fed = {
            let mut w = DurableFileWriter::create(&path, compressor(), 2, 3).unwrap();
            let prefix = &data[..36 * 20 + 7];
            for chunk in prefix.chunks(101) {
                w.write_values(chunk).unwrap();
            }
            prefix.len()
        };
        // Resume: skip the committed values, re-feed the rest.
        let w = DurableFileWriter::resume(&path, compressor(), 2, 3).unwrap();
        let cp = w.checkpoint();
        assert!(cp.values > 0, "some batches must have committed");
        assert!(cp.values <= fed as u64);
        let mut w = w;
        for chunk in data[cp.values as usize..].chunks(55) {
            w.write_values(chunk).unwrap();
        }
        let finished = w.finish().unwrap();
        assert_eq!(finished.values, data.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_torn_journal_tail_recovers() {
        let path = tmp("torn-journal.pstrs");
        let data = patterned(36 * 12);
        let expected = sequential_stream(&data, 1);
        {
            let mut w = DurableFileWriter::create(&path, compressor(), 1, 2).unwrap();
            w.write_values(&data[..36 * 7]).unwrap();
        }
        // Crash tore the final journal record.
        let jp = journal_path(&path);
        let mut jbytes = std::fs::read(&jp).unwrap();
        let cut = jbytes.len() - 11;
        jbytes.truncate(cut);
        jbytes.extend_from_slice(&[0xEE; 4]); // plus some garbage
        std::fs::write(&jp, &jbytes).unwrap();

        let w = DurableFileWriter::resume(&path, compressor(), 1, 2).unwrap();
        let cp = w.checkpoint();
        assert_eq!(cp.segments % 2, 0, "only whole batches are committed");
        let mut w = w;
        w.write_values(&data[cp.values as usize..]).unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_journal_restarts_from_scratch() {
        let path = tmp("no-journal.pstrs");
        let data = patterned(36 * 5);
        {
            let mut w = DurableFileWriter::create(&path, compressor(), 1, 2).unwrap();
            w.write_values(&data[..36 * 3]).unwrap();
        }
        let _ = std::fs::remove_file(journal_path(&path));
        let mut w = DurableFileWriter::resume(&path, compressor(), 1, 2).unwrap();
        assert_eq!(w.checkpoint(), Checkpoint::default());
        w.write_values(&data).unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), sequential_stream(&data, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_claiming_more_than_file_is_invalid_data() {
        let path = tmp("overclaim.pstrs");
        let data = patterned(36 * 6);
        {
            let mut w = DurableFileWriter::create(&path, compressor(), 1, 1).unwrap();
            w.write_values(&data).unwrap();
        }
        // Shear the data file *below* the committed prefix — a crash
        // cannot do this (checkpoints follow fsync), so resume refuses.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);
        let err = match DurableFileWriter::resume(&path, compressor(), 1, 1) {
            Err(e) => e,
            Ok(_) => panic!("overclaiming journal must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
    }

    #[test]
    fn committed_prefix_is_always_readable_mid_write() {
        let path = tmp("prefix-readable.pstrs");
        let data = patterned(36 * 10);
        let mut w = DurableFileWriter::create(&path, compressor(), 1, 5).unwrap();
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
