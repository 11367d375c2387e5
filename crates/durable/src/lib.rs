//! Crash-consistent write primitives — the durability layer behind every
//! PaSTRI artifact writer.
//!
//! PaSTRI's target deployment streams ERI blocks onto a parallel file
//! system where jobs are routinely preempted mid-write. This crate gives
//! the writers two complementary tools:
//!
//! * **Whole-file atomic commits** ([`atomic_write`], [`AtomicFile`]):
//!   write to a temp file in the destination directory, fsync it, rename
//!   over the destination, fsync the directory. A crash at any instant
//!   leaves either the old file or the new one — never a torn mix.
//!
//! * **In-band commit records** for artifacts that grow over hours:
//!   [`Journaled`] appends a fixed-size, CRC-protected record
//!   `(segments, values, bytes, span CRC)` to the artifact itself after
//!   each batch of segments or blocks, then fsyncs once. The span CRC
//!   covers every byte since the previous record, so one data fsync
//!   makes the batch and its commit durable together. Artifacts are
//!   append-only: no write ever overwrites committed bytes.
//!
//! Recovery is the format's own walk: a stream or store walks its
//! framing with positional reads and hands each frame and commit record
//! it meets to a [`CommitScan`]. A commit counts only if its record and
//! its whole span verify; the artifact is cut after the last such
//! commit. Anything past it — a torn record, a lost or torn unsynced
//! write, a terminator or index written after the last commit — is a
//! torn tail and is trimmed. A record that fails while bytes follow it
//! cannot come from a crash (nothing is written after a record until
//! its fsync returns), so it is `InvalidData`, never a tail — and so is
//! a record the walk could not reach because the framing before it is
//! damaged.
//!
//! Sinks are abstracted by [`SyncWrite`] (a `Write` that can fsync), so
//! the fault-injection harness can interpose on every byte and fsync.
//! Sources are abstracted by [`ReadAt`] (positional reads through
//! `&self`), so one open file can serve many threads at once and the
//! same harness can interpose on every read.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use checksum::{crc32, Crc32};

pub mod retry;

pub use retry::{read_exact_retry, RetryPolicy, RetryStats};

/// A byte sink that can force its contents to stable storage.
///
/// `sync` must not return until every byte previously accepted by
/// `write` is durable (for files: `fsync`). In-memory sinks are their
/// own stable storage, so their `sync` is a no-op.
pub trait SyncWrite: Write {
    /// Flushes and forces all written bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

impl SyncWrite for File {
    fn sync(&mut self) -> io::Result<()> {
        // sync_all (fsync, not fdatasync) so file-size metadata from
        // appends is durable too — a checkpoint must never describe
        // bytes the filesystem could forget.
        timed_fsync(|| self.sync_all())
    }
}

/// Runs one fsync-like operation, recording its count and latency — the
/// single choke point every file sync in the repo funnels through, so
/// `durable.fsyncs` / `durable.fsync_us` see them all.
fn timed_fsync(f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
    if !telemetry::is_enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let result = f();
    telemetry::counter_add("durable.fsyncs", 1);
    telemetry::observe_us("durable.fsync_us", start.elapsed().as_micros() as u64);
    result
}

impl SyncWrite for Vec<u8> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<W: SyncWrite + ?Sized> SyncWrite for &mut W {
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// A byte source read by absolute offset through a shared reference —
/// `pread(2)`, not seek + read — so any number of threads can read one
/// handle at once without a lock or a shared cursor.
pub trait ReadAt {
    /// Reads up to `buf.len()` bytes starting at `offset`; returns how
    /// many were read (0 at or past the end). Like `Read::read`, a call
    /// may return fewer bytes than asked for.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;

    /// Total length of the source in bytes.
    fn size(&self) -> io::Result<u64>;
}

impl ReadAt for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(self, buf, offset)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

impl ReadAt for [u8] {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let start = usize::try_from(offset).map_or(self.len(), |o| o.min(self.len()));
        let n = buf.len().min(self.len() - start);
        buf[..n].copy_from_slice(&self[start..start + n]);
        Ok(n)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.len() as u64)
    }
}

impl<R: ReadAt + ?Sized> ReadAt for &R {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        (**self).read_at(buf, offset)
    }

    fn size(&self) -> io::Result<u64> {
        (**self).size()
    }
}

impl<R: ReadAt + ?Sized> ReadAt for Box<R> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        (**self).read_at(buf, offset)
    }

    fn size(&self) -> io::Result<u64> {
        (**self).size()
    }
}

/// Fsyncs a directory so a rename or unlink inside it is durable.
/// On platforms where directories cannot be opened for sync, this is a
/// best-effort no-op (POSIX systems support it; the repo targets Linux).
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => timed_fsync(|| d.sync_all()),
        // Missing or unopenable parent (e.g. rename into cwd ""): the
        // rename itself already succeeded, so don't fail the commit.
        Err(_) => Ok(()),
    }
}

/// The parent directory of `path`, defaulting to `.` for bare names.
pub fn parent_of(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Atomically replaces `path` with `bytes`: temp file in the same
/// directory, fsync, rename over `path`, directory fsync. A crash leaves
/// either the previous content or the new content, never a prefix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = AtomicFile::create(path)?;
    tmp.write_all(bytes)?;
    tmp.commit()
}

/// A file being written for atomic replacement of its destination.
///
/// Bytes go to `<dest>.tmp-<pid>`; [`commit`](Self::commit) fsyncs and
/// renames it over the destination. Dropping without committing removes
/// the temp file, so an aborted write never leaves debris that could be
/// mistaken for the artifact.
pub struct AtomicFile {
    file: Option<File>,
    tmp_path: PathBuf,
    dest: PathBuf,
}

impl AtomicFile {
    /// Opens a temp file next to `dest` (same filesystem, so the final
    /// rename is atomic).
    pub fn create(dest: &Path) -> io::Result<Self> {
        let mut name = dest.file_name().map_or_else(
            || std::ffi::OsString::from("artifact"),
            std::ffi::OsStr::to_os_string,
        );
        name.push(format!(".tmp-{}", std::process::id()));
        let tmp_path = parent_of(dest).join(name);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        Ok(Self {
            file: Some(file),
            tmp_path,
            dest: dest.to_path_buf(),
        })
    }

    /// Fsyncs the temp file, renames it over the destination, and fsyncs
    /// the directory. After this returns, the new content is durable.
    pub fn commit(mut self) -> io::Result<()> {
        let file = self.file.take().expect("commit consumes the file");
        timed_fsync(|| file.sync_all())?;
        drop(file);
        std::fs::rename(&self.tmp_path, &self.dest)?;
        fsync_dir(&parent_of(&self.dest))
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.as_mut().expect("not committed").write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.as_mut().expect("not committed").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

/// Fills `buf` from `r` at `offset`, failing with `UnexpectedEof` if the
/// source ends first.
pub fn read_exact_at<R: ReadAt + ?Sized>(r: &R, buf: &mut [u8], offset: u64) -> io::Result<()> {
    read_exact_retry(r, buf, offset, &RetryPolicy::none(), &mut RetryStats::default())
}

/// First bytes of every commit record — distinct from a container's
/// `PSTR`, so a store walker tells the two apart by their first word.
pub const COMMIT_MAGIC: [u8; 4] = *b"PSTC";
/// Bytes per commit record: magic, segments, values, bytes (u64 LE
/// each), the span CRC32 and the CRC32 of the 32 bytes before it.
pub const RECORD_LEN: usize = 36;

/// One durable position in a growing artifact: everything at or before
/// it survives a crash byte-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Segments (stream) or blocks (store) committed.
    pub segments: u64,
    /// Source values (f64s) those segments cover — what a resuming
    /// producer must skip before feeding the writer again.
    pub values: u64,
    /// Artifact byte length at the checkpoint, its commit record
    /// included — what recovery truncates the file to.
    pub bytes: u64,
}

impl Checkpoint {
    /// The commit record for `self`, sealing a span whose CRC32 is
    /// `span_crc`.
    fn record(&self, span_crc: u32) -> [u8; RECORD_LEN] {
        let mut rec = [0u8; RECORD_LEN];
        rec[..4].copy_from_slice(&COMMIT_MAGIC);
        rec[4..12].copy_from_slice(&self.segments.to_le_bytes());
        rec[12..20].copy_from_slice(&self.values.to_le_bytes());
        rec[20..28].copy_from_slice(&self.bytes.to_le_bytes());
        rec[28..32].copy_from_slice(&span_crc.to_le_bytes());
        let crc = crc32(&rec[..32]);
        rec[32..].copy_from_slice(&crc.to_le_bytes());
        rec
    }

    /// The checkpoint and span CRC a record holds, or `None` when its
    /// magic or its own CRC fails.
    fn parse_record(rec: &[u8]) -> Option<(Checkpoint, u32)> {
        let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().unwrap());
        if rec.len() != RECORD_LEN || rec[..4] != COMMIT_MAGIC || crc32(&rec[..32]) != u32_at(32) {
            return None;
        }
        let cp = Checkpoint {
            segments: u64_at(4),
            values: u64_at(12),
            bytes: u64_at(20),
        };
        Some((cp, u32_at(28)))
    }
}

/// Recovery's half of the commit protocol: a format's walker hands it the
/// artifact's bytes in order — the frames it reads through
/// [`feed`](Self::feed), each commit record it meets through
/// [`record`](Self::record) — and it keeps the last commit that verifies.
///
/// A commit verifies when its record CRC holds, it names its own end
/// offset and the segment count the walker has seen, it does not regress,
/// and the CRC32 of every byte since the previous record matches. The
/// span CRC runs over the bytes the walker already holds; only the few
/// framing bytes between them (a header, a length varint) are read here.
///
/// A record is written only after everything before it, and anything
/// after it only once it is durable. So a record that fails while more
/// bytes follow it is damage, never a torn tail; only a failing record
/// that ends the artifact can be one.
pub struct CommitScan<'a, R: ReadAt + ?Sized> {
    source: &'a R,
    size: u64,
    last: Checkpoint,
    /// End of the previous record met: where the current span starts.
    span_start: u64,
    /// CRC32 of `[span_start, fed)`.
    span: Crc32,
    fed: u64,
}

impl<'a, R: ReadAt + ?Sized> CommitScan<'a, R> {
    /// A scan of `source` from its first byte.
    ///
    /// # Errors
    /// Any I/O error sizing the source.
    pub fn new(source: &'a R) -> io::Result<Self> {
        Ok(Self {
            source,
            size: source.size()?,
            last: Checkpoint::default(),
            span_start: 0,
            span: Crc32::new(),
            fed: 0,
        })
    }

    /// Hashes `bytes`, which the walker read at offset `at`.
    ///
    /// # Errors
    /// Any I/O error reading the framing bytes before `at`.
    pub fn feed(&mut self, at: u64, bytes: &[u8]) -> io::Result<()> {
        self.hash_to(at)?;
        self.span.update(bytes);
        self.fed += bytes.len() as u64;
        Ok(())
    }

    /// Weighs the `record` bytes found at offset `at`, after the walker
    /// has seen `segments` segments (or blocks) in all.
    ///
    /// # Errors
    /// `InvalidData` when the commit fails and bytes follow it: damage
    /// inside committed data. Any I/O error.
    pub fn record(&mut self, at: u64, record: &[u8], segments: u64) -> io::Result<()> {
        self.hash_to(at)?;
        let end = at + RECORD_LEN as u64;
        let span_crc = std::mem::take(&mut self.span).finish();
        let from = self.span_start;
        (self.span_start, self.fed) = (end, end);
        match Checkpoint::parse_record(record) {
            Some((cp, crc))
                if cp.bytes == end
                    && crc == span_crc
                    && cp.segments == segments
                    && cp.segments >= self.last.segments
                    && cp.values >= self.last.values =>
            {
                self.last = cp;
            }
            _ if end < self.size => return Err(damaged(from, end)),
            _ => {}
        }
        Ok(())
    }

    /// The last verified commit, once the walker has stopped — at the
    /// end of the artifact, or at bytes it cannot frame. Everything since
    /// the last record met is searched for a record that names its own
    /// offset, which a misread frame may have swallowed: one with bytes
    /// after it, or whose span verifies, proves committed data damaged.
    /// The search holds one 64 KiB window.
    ///
    /// # Errors
    /// `InvalidData` for such a record; any I/O error.
    pub fn finish(self) -> io::Result<Checkpoint> {
        const WINDOW: u64 = 64 << 10;
        let mut span = Crc32::new();
        let mut pos = self.span_start;
        let mut buf = Vec::new();
        while pos + RECORD_LEN as u64 <= self.size {
            buf.resize((self.size - pos).min(WINDOW + RECORD_LEN as u64) as usize, 0);
            read_exact_at(self.source, &mut buf, pos)?;
            let mut i = 0;
            while i + RECORD_LEN <= buf.len() {
                let end = pos + (i + RECORD_LEN) as u64;
                match Checkpoint::parse_record(&buf[i..i + RECORD_LEN]) {
                    Some((cp, crc)) if cp.bytes == end => {
                        span.update(&buf[..i]);
                        if end < self.size || span.finish() == crc {
                            return Err(damaged(self.span_start, end));
                        }
                        return Ok(self.last); // the last write, torn: a tail
                    }
                    _ => i += 1,
                }
            }
            span.update(&buf[..i]);
            pos += i as u64;
        }
        Ok(self.last)
    }

    /// Hashes the bytes in `[fed, to)`, reading them from the source:
    /// the framing between the frames the walker hands over.
    fn hash_to(&mut self, to: u64) -> io::Result<()> {
        let mut buf = [0u8; 64];
        while self.fed < to {
            let n = buf.len().min((to - self.fed) as usize);
            read_exact_at(self.source, &mut buf[..n], self.fed)?;
            self.span.update(&buf[..n]);
            self.fed += n as u64;
        }
        Ok(())
    }
}

/// Damage in the span from `from` to the commit ending at `end`.
fn damaged(from: u64, end: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "committed data is damaged between offsets {from} and {end} \
             (a crash only ever tears the tail)"
        ),
    )
}

/// A quarantine path for a damaged artifact that never collides with an
/// existing one: `<artifact>.quarantine`, then `.quarantine.1`,
/// `.quarantine.2`, … — the first name not already on disk. Repeated
/// scrub passes therefore never clobber evidence from an earlier pass.
#[must_use]
pub fn fresh_quarantine_path(artifact: &Path) -> PathBuf {
    let mut base = artifact.file_name().map_or_else(
        || std::ffi::OsString::from("artifact"),
        std::ffi::OsStr::to_os_string,
    );
    base.push(".quarantine");
    let dir = parent_of(artifact);
    let first = dir.join(&base);
    if !first.exists() {
        return first;
    }
    for n in 1u64.. {
        let mut name = base.clone();
        name.push(format!(".{n}"));
        let candidate = dir.join(name);
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("u64 quarantine suffixes exhausted")
}

/// A growing, append-only artifact that carries its own commit records:
/// the one append, commit and recover protocol behind every durable
/// writer (streams and block stores alike).
///
/// Bytes go out through [`Write`], which tracks the write position and
/// a running CRC32 of everything since the last commit.
/// [`commit`](Self::commit) appends the record sealing that span and
/// fsyncs once, so the batch and its commit become durable together.
/// For files, [`create`](Journaled::create) fsyncs the new file's
/// directory entry and [`resume`](Journaled::resume) cuts an interrupted
/// artifact back to its last verified commit. Every fsync goes through
/// [`SyncWrite::sync`] or [`fsync_dir`], so `durable.fsyncs` and
/// `durable.fsync_us` see them all.
pub struct Journaled<W: Write> {
    data: W,
    committed: Checkpoint,
    position: u64,
    span: Crc32,
}

impl<W: Write> Journaled<W> {
    /// A fresh, empty artifact over a caller-supplied sink.
    pub fn new(data: W) -> Self {
        Self::at(data, Checkpoint::default())
    }

    /// An artifact whose bytes up to `committed` are already in `data`.
    fn at(data: W, committed: Checkpoint) -> Self {
        Self {
            data,
            committed,
            position: committed.bytes,
            span: Crc32::new(),
        }
    }

    /// Bytes written so far, committed or not.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The last durable checkpoint: everything at or before it survives
    /// a crash.
    #[must_use]
    pub fn committed(&self) -> Checkpoint {
        self.committed
    }

    /// Appends the record sealing everything written since the previous
    /// one as `segments` segments (or blocks) covering `values` source
    /// values, without syncing: a copy that is made durable as a whole,
    /// such as an atomically replaced file, needs no fsync per record.
    pub fn seal(&mut self, segments: u64, values: u64) -> io::Result<Checkpoint> {
        let cp = Checkpoint {
            segments,
            values,
            bytes: self.position + RECORD_LEN as u64,
        };
        self.data.write_all(&cp.record(std::mem::take(&mut self.span).finish()))?;
        self.position = cp.bytes;
        Ok(cp)
    }
}

impl<W: SyncWrite> Journaled<W> {
    /// Commits everything written so far as `segments` segments (or
    /// blocks) covering `values` source values: [`seal`](Self::seal),
    /// then one data fsync. When this returns, recovery finds this
    /// checkpoint (or a later one).
    pub fn commit(&mut self, segments: u64, values: u64) -> io::Result<()> {
        let cp = self.seal(segments, values)?;
        telemetry::counter_add("durable.checkpoints", 1);
        self.data.sync()?;
        self.committed = cp;
        Ok(())
    }

    /// Syncs the data one last time (bytes written since the last
    /// commit, such as a terminator or an index) and returns the sink
    /// and the last checkpoint.
    pub fn close(mut self) -> io::Result<(W, Checkpoint)> {
        self.data.sync()?;
        Ok((self.data, self.committed))
    }
}

impl<W: Write> Write for Journaled<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.data.write(buf)?;
        self.span.update(&buf[..n]);
        self.position += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.data.flush()
    }
}

impl Journaled<File> {
    /// Starts a fresh artifact at `path`, truncating any previous one,
    /// and fsyncs the directory so a later commit never lives in a file
    /// whose directory entry a power loss could still drop.
    pub fn create(path: &Path) -> io::Result<Self> {
        let data = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        fsync_dir(&parent_of(path))?;
        Ok(Self::new(data))
    }

    /// Recovers an interrupted write at `path` (creating the file if it
    /// is missing). `walk` reads the artifact's own framing through a
    /// [`CommitScan`] and returns the last verified commit, plus whatever
    /// the format needs to continue. The file is then cut to that commit
    /// and fsync'd (a trimmed tail is counted in
    /// `durable.resume_truncations`), the directory is fsync'd, and the
    /// artifact is positioned for appending. With no verified commit the
    /// artifact restarts empty.
    ///
    /// # Errors
    /// Whatever `walk` returns — `InvalidData` (or the format's own
    /// corruption error) for damage inside committed bytes — and any I/O
    /// error.
    pub fn resume<T, E: From<io::Error>>(
        path: &Path,
        walk: impl FnOnce(&File) -> Result<(Checkpoint, T), E>,
    ) -> Result<(Self, T), E> {
        let mut data = OpenOptions::new()
            .create(true)
            .truncate(false) // the committed prefix is kept; `set_len` trims the tail
            .read(true)
            .write(true)
            .open(path)?;
        let (cp, state) = walk(&data)?;
        if data.metadata()?.len() > cp.bytes {
            telemetry::counter_add("durable.resume_truncations", 1);
        }
        data.set_len(cp.bytes)?;
        data.sync()?;
        data.seek(SeekFrom::Start(cp.bytes))?;
        fsync_dir(&parent_of(path))?;
        Ok((Self::at(data, cp), state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("durable-{}-{name}", std::process::id()))
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let path = tmp("atomic");
        atomic_write(&path, b"first version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn aborted_atomic_file_leaves_no_debris() {
        let path = tmp("aborted");
        atomic_write(&path, b"keep me").unwrap();
        {
            let mut f = AtomicFile::create(&path).unwrap();
            f.write_all(b"half a new ver").unwrap();
            // dropped without commit
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"keep me");
        // No stray temp file next to it.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let strays: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with(&stem) && n.contains(".tmp-")
            })
            .collect();
        assert!(strays.is_empty(), "temp debris: {strays:?}");
        let _ = std::fs::remove_file(&path);
    }

    /// A toy artifact for the commit tests: 10-byte data chunks, each
    /// counted as one segment, with commit records between them.
    const CHUNK: usize = 10;

    /// The toy format's walker: the last verified commit of `bytes`.
    fn walk<R: ReadAt + ?Sized>(src: &R) -> io::Result<Checkpoint> {
        let size = src.size()?;
        let mut scan = CommitScan::new(src)?;
        let (mut pos, mut segments) = (0u64, 0u64);
        let mut rec = [0u8; RECORD_LEN];
        loop {
            if pos + RECORD_LEN as u64 <= size {
                read_exact_at(src, &mut rec, pos)?;
                if rec[..4] == COMMIT_MAGIC {
                    scan.record(pos, &rec, segments)?;
                    pos += RECORD_LEN as u64;
                    continue;
                }
            }
            if pos + CHUNK as u64 > size {
                return scan.finish();
            }
            let mut chunk = [0u8; CHUNK];
            read_exact_at(src, &mut chunk, pos)?;
            scan.feed(pos, &chunk)?;
            pos += CHUNK as u64;
            segments += 1;
        }
    }

    /// `commits` chunks of byte `i`, each committed, plus `tail` bytes
    /// of an uncommitted chunk.
    fn artifact(commits: u64, tail: usize) -> Vec<u8> {
        let mut j = Journaled::new(Vec::new());
        for i in 1..=commits {
            j.write_all(&[i as u8; CHUNK]).unwrap();
            j.commit(i, i * 4).unwrap();
        }
        j.write_all(&vec![0xEE; tail]).unwrap();
        j.close().unwrap().0
    }

    fn cp(i: u64) -> Checkpoint {
        Checkpoint { segments: i, values: i * 4, bytes: i * (CHUNK + RECORD_LEN) as u64 }
    }

    #[test]
    fn journal_roundtrip_last_record_wins() {
        let bytes = artifact(5, 0);
        assert_eq!(bytes.len(), 5 * (CHUNK + RECORD_LEN));
        assert_eq!(walk(&bytes.as_slice()).unwrap(), cp(5));
        // Every commit boundary is itself a committed prefix.
        for i in 0..=5 {
            let prefix = &bytes[..cp(i).bytes as usize];
            assert_eq!(walk(&prefix).unwrap(), cp(i));
        }
    }

    #[test]
    fn torn_tail_record_falls_back() {
        let full = artifact(2, 0);
        // Every torn prefix of the final record falls back to commit 1.
        for cut in 0..RECORD_LEN {
            let torn = &full[..full.len() - RECORD_LEN + cut];
            assert_eq!(walk(&torn).unwrap(), cp(1), "cut {cut} bytes into final record");
        }
        // A flipped bit in the tail record, or in the span it seals, also
        // falls back: nothing verified follows the damage.
        for at in [full.len() - 10, full.len() - RECORD_LEN - 3] {
            let mut flipped = full.clone();
            flipped[at] ^= 0x40;
            assert_eq!(walk(&flipped.as_slice()).unwrap(), cp(1), "flip at {at}");
        }
    }

    #[test]
    fn commit_scan_reports_valid_prefix_length() {
        // The committed length is the end of the last verified record,
        // whatever follows it.
        for tail in [0, 3, CHUNK + 5, CHUNK + RECORD_LEN - 1] {
            let bytes = artifact(2, tail);
            assert_eq!(walk(&bytes.as_slice()).unwrap().bytes, cp(2).bytes, "tail {tail}");
        }
    }

    #[test]
    fn headerless_or_empty_journal_is_none() {
        // No verified record: nothing is committed.
        assert_eq!(walk(&&[][..]).unwrap(), Checkpoint::default());
        assert_eq!(walk(&&[7u8; 95][..]).unwrap(), Checkpoint::default());
        let mut first = artifact(1, 0);
        first.truncate(CHUNK + 3);
        assert_eq!(walk(&first.as_slice()).unwrap(), Checkpoint::default());
    }

    #[test]
    fn regressing_record_stops_the_scan() {
        // A record with a valid CRC that regresses (only tampering makes
        // one) never becomes the commit, and bytes after it make it
        // damage rather than a tail.
        let mut j = Journaled::new(Vec::new());
        j.write_all(&[1; CHUNK]).unwrap();
        j.commit(1, 40).unwrap();
        j.write_all(&[2; CHUNK]).unwrap();
        j.commit(2, 10).unwrap(); // values regress
        let regressed = j.data.clone();
        assert_eq!(walk(&regressed.as_slice()).unwrap().segments, 1);
        j.write_all(&[3; CHUNK]).unwrap();
        j.commit(3, 90).unwrap();
        let err = walk(&j.data.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn finish_finds_a_record_the_walk_could_not_reach() {
        // A walker that stops after the first chunk, as if the framing
        // there were damaged: the search past the stop finds the records.
        let stopped = |bytes: &[u8]| {
            let mut scan = CommitScan::new(bytes).unwrap();
            scan.feed(0, &bytes[..CHUNK]).unwrap();
            scan.finish()
        };
        // A record with bytes after it was durable: damage.
        let err = stopped(&artifact(2, 0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The final record, its span intact: the framing is damaged.
        assert!(stopped(&artifact(1, 0)).is_err());
        // The final record, its span torn: a crash's tail.
        let mut torn = artifact(1, 0);
        torn[3] = 0;
        assert_eq!(stopped(&torn).unwrap(), Checkpoint::default());
    }

    #[test]
    fn fresh_quarantine_path_never_clobbers() {
        let artifact = tmp("qpath.eristore");
        let first = fresh_quarantine_path(&artifact);
        assert!(first.to_string_lossy().ends_with(".eristore.quarantine"));
        std::fs::write(&first, b"pass one").unwrap();
        let second = fresh_quarantine_path(&artifact);
        assert!(second.to_string_lossy().ends_with(".quarantine.1"));
        std::fs::write(&second, b"pass two").unwrap();
        let third = fresh_quarantine_path(&artifact);
        assert!(third.to_string_lossy().ends_with(".quarantine.2"));
        // Earlier evidence is intact.
        assert_eq!(std::fs::read(&first).unwrap(), b"pass one");
        assert_eq!(std::fs::read(&second).unwrap(), b"pass two");
        let _ = std::fs::remove_file(&first);
        let _ = std::fs::remove_file(&second);
    }

    /// The files next to `path` whose names extend it (a sidecar would).
    fn sidecars(path: &Path) -> Vec<String> {
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n.len() > stem.len())
            .collect()
    }

    #[test]
    fn journal_file_lifecycle() {
        let path = tmp("lifecycle.bin");
        let mut j = Journaled::create(&path).unwrap();
        j.write_all(&[1; CHUNK]).unwrap();
        j.commit(1, 4).unwrap();
        assert_eq!(j.close().unwrap().1, cp(1));
        assert_eq!(std::fs::read(&path).unwrap(), artifact(1, 0));
        // Resume appends after the committed prefix, in the same file.
        let (mut j, ()) = Journaled::resume(&path, |f| walk(f).map(|cp| (cp, ()))).unwrap();
        assert_eq!(j.committed(), cp(1));
        j.write_all(&[2; CHUNK]).unwrap();
        j.commit(2, 8).unwrap();
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), artifact(2, 0));
        assert!(sidecars(&path).is_empty(), "no sidecar: {:?}", sidecars(&path));
        let _ = std::fs::remove_file(&path);
    }

    /// The `Journaled` recovery tests share the process-wide telemetry
    /// recorder (one of them counts `durable.resume_truncations`), so
    /// they run one at a time.
    static RECOVERY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn recovery_lock() -> std::sync::MutexGuard<'static, ()> {
        RECOVERY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// `bytes` laid down at a fresh path named `name`.
    fn on_disk(name: &str, bytes: &[u8]) -> PathBuf {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn resume(path: &Path) -> io::Result<Journaled<File>> {
        Journaled::resume(path, |f| walk(f).map(|cp| (cp, ()))).map(|(j, ())| j)
    }

    #[test]
    fn journaled_resume_refuses_a_journal_that_outruns_its_artifact() {
        let _serial = recovery_lock();
        // A flipped bit inside commit 2's span, with commit 3 intact: the
        // damage lies before a verified commit, so it is corruption, and
        // the file is left as it was.
        let mut bytes = artifact(3, 7);
        bytes[cp(1).bytes as usize + 4] ^= 0x08;
        let path = on_disk("outrun.bin", &bytes);
        let err = resume(&path).err().expect("damage before a verified commit must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing trimmed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_resume_trims_a_torn_journal_tail_and_appends_after_it() {
        let _serial = recovery_lock();
        let mut bytes = artifact(2, 0);
        bytes.extend_from_slice(&[3; CHUNK]);
        bytes.extend_from_slice(&COMMIT_MAGIC); // a torn third record
        let path = on_disk("torn.bin", &bytes);

        let mut j = resume(&path).unwrap();
        assert_eq!(j.committed(), cp(2));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), cp(2).bytes, "torn tail cut");
        j.write_all(&[3; CHUNK]).unwrap();
        j.commit(3, 12).unwrap();
        assert_eq!(j.close().unwrap().1, cp(3));
        assert_eq!(std::fs::read(&path).unwrap(), artifact(3, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_resume_without_a_journal_starts_fresh() {
        let _serial = recovery_lock();
        let path = on_disk("absent.bin", &artifact(0, 25));
        let mut j = resume(&path).unwrap();
        assert_eq!(j.committed(), Checkpoint::default());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "nothing was committed");
        j.write_all(&[1; CHUNK]).unwrap();
        j.commit(1, 4).unwrap();
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), artifact(1, 0));
        // A missing file is created empty.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(resume(&path).unwrap().committed(), Checkpoint::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_resume_counts_one_truncation() {
        let _serial = recovery_lock();
        let path = on_disk("count.bin", &artifact(2, 7));
        telemetry::reset();
        telemetry::set_enabled(true);
        let j = resume(&path).unwrap();
        telemetry::set_enabled(false);
        let snap = telemetry::snapshot();
        assert_eq!(snap.counter("durable.resume_truncations"), 1);
        drop(j);
        let _ = std::fs::remove_file(&path);
    }
}
