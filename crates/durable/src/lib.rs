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
//! * **An append-side checkpoint journal** ([`JournalWriter`],
//!   [`Checkpoint`]) for streams that grow over hours: after each batch
//!   of segments is written *and fsync'd*, a fixed-size CRC-protected
//!   record `(segments, values, bytes)` is appended to a sidecar
//!   `<artifact>.journal` file and fsync'd in turn. The last valid
//!   record defines the artifact's *committed prefix*: everything at or
//!   before `bytes` is durable and byte-exact, everything after is
//!   uncommitted and may be truncated away on resume. A torn final
//!   journal record (the crash landed mid-append) fails its CRC and is
//!   ignored, falling back to the previous record.
//!
//! The write ordering — data write, data fsync, journal record, journal
//! fsync — guarantees a checkpoint is only ever visible once the bytes
//! it describes are durable, so recovery never trusts a checkpoint ahead
//! of the data.
//!
//! Sinks are abstracted by [`SyncWrite`] (a `Write` that can fsync), so
//! the fault-injection harness can interpose on every byte and fsync of
//! both the data file and the journal. Sources are abstracted by
//! [`ReadAt`] (positional reads through `&self`), so one open file can
//! serve many threads at once and the same harness can interpose on
//! every read.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use checksum::crc32;

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

impl SyncWrite for io::Sink {
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

impl ReadAt for &[u8] {
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

/// Magic + version prefix of a checkpoint journal file.
pub const JOURNAL_MAGIC: [u8; 6] = *b"PSTRJ\x01";
/// Bytes per journal record: segments, values, bytes (u64 LE each) +
/// CRC32 of those 24 bytes.
pub(crate) const RECORD_LEN: usize = 28;

/// Sidecar journal path for an artifact: `<artifact>.journal`.
#[must_use]
pub fn journal_path(artifact: &Path) -> PathBuf {
    let mut name = artifact.file_name().map_or_else(
        || std::ffi::OsString::from("artifact"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".journal");
    parent_of(artifact).join(name)
}

/// One durable position in a growing artifact: everything at or before
/// it survives a crash byte-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Segments (stream) or blocks (store) committed.
    pub segments: u64,
    /// Source values (f64s) those segments cover — what a resuming
    /// producer must skip before feeding the writer again.
    pub values: u64,
    /// Artifact byte length at the checkpoint — what recovery truncates
    /// the file to.
    pub bytes: u64,
}

impl Checkpoint {
    fn encode(&self) -> [u8; RECORD_LEN] {
        let mut rec = [0u8; RECORD_LEN];
        rec[..8].copy_from_slice(&self.segments.to_le_bytes());
        rec[8..16].copy_from_slice(&self.values.to_le_bytes());
        rec[16..24].copy_from_slice(&self.bytes.to_le_bytes());
        let crc = crc32(&rec[..24]);
        rec[24..].copy_from_slice(&crc.to_le_bytes());
        rec
    }

    fn decode(rec: &[u8]) -> Option<Checkpoint> {
        if rec.len() != RECORD_LEN {
            return None;
        }
        let stored = u32::from_le_bytes(rec[24..28].try_into().unwrap());
        if crc32(&rec[..24]) != stored {
            return None;
        }
        Some(Checkpoint {
            segments: u64::from_le_bytes(rec[..8].try_into().unwrap()),
            values: u64::from_le_bytes(rec[8..16].try_into().unwrap()),
            bytes: u64::from_le_bytes(rec[16..24].try_into().unwrap()),
        })
    }
}

/// Appends checkpoint records, each followed by an fsync, so the journal
/// never claims more than the data file durably holds.
pub struct JournalWriter<J: SyncWrite> {
    sink: J,
    header_written: bool,
}

impl<J: SyncWrite> JournalWriter<J> {
    /// A journal starting from scratch: the magic goes out with the
    /// first record.
    pub fn new(sink: J) -> Self {
        Self {
            sink,
            header_written: false,
        }
    }

    /// A journal being appended to after a crash: the magic is already
    /// on disk, new records extend the existing sequence.
    pub fn resume(sink: J) -> Self {
        Self {
            sink,
            header_written: true,
        }
    }

    /// Durably appends one checkpoint: record write, then fsync. When
    /// this returns, recovery will find `cp` (or a later checkpoint).
    pub fn record(&mut self, cp: Checkpoint) -> io::Result<()> {
        if !self.header_written {
            self.sink.write_all(&JOURNAL_MAGIC)?;
            self.header_written = true;
        }
        self.sink.write_all(&cp.encode())?;
        telemetry::counter_add("durable.checkpoints", 1);
        self.sink.sync()
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> J {
        self.sink
    }
}

/// Scans raw journal bytes for the last valid checkpoint.
///
/// Tolerates exactly the damage a crash can cause: a missing or torn
/// final record (short or failing its CRC) is ignored and the previous
/// record wins. Returns `None` for an empty, headerless, or record-free
/// journal — recovery then treats the artifact as having no committed
/// prefix. Records must be monotonic (a crash cannot reorder appends);
/// scanning stops at the first regression so a corrupt middle record
/// cannot inflate the committed prefix.
#[must_use]
pub fn parse_last_checkpoint(bytes: &[u8]) -> Option<Checkpoint> {
    scan_journal(bytes).0
}

/// Like [`parse_last_checkpoint`], but also returns the byte length of
/// the journal's *valid prefix* (magic + accepted records). A resuming
/// writer truncates the journal to this length before appending, so a
/// torn tail record can never knock later appends out of alignment.
#[must_use]
pub fn scan_journal(bytes: &[u8]) -> (Option<Checkpoint>, usize) {
    let Some(body) = bytes.strip_prefix(JOURNAL_MAGIC.as_slice()) else {
        return (None, 0);
    };
    let mut last: Option<Checkpoint> = None;
    let mut accepted = 0usize;
    for rec in body.chunks(RECORD_LEN) {
        match Checkpoint::decode(rec) {
            Some(cp) => {
                if let Some(prev) = last {
                    if cp.bytes < prev.bytes || cp.segments < prev.segments {
                        break;
                    }
                }
                last = Some(cp);
                accepted += 1;
            }
            // Torn or corrupt record: nothing after it can be trusted.
            None => break,
        }
    }
    (last, JOURNAL_MAGIC.len() + accepted * RECORD_LEN)
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

/// Durably removes an artifact's journal (after a successful finish):
/// unlink + directory fsync. Missing journal is fine.
pub fn remove_journal(artifact: &Path) -> io::Result<()> {
    let jp = journal_path(artifact);
    match std::fs::remove_file(&jp) {
        Ok(()) => fsync_dir(&parent_of(&jp)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
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

    #[test]
    fn journal_roundtrip_last_record_wins() {
        let mut j = JournalWriter::new(Vec::new());
        for i in 1..=5u64 {
            j.record(Checkpoint {
                segments: i,
                values: i * 100,
                bytes: 6 + i * 37,
            })
            .unwrap();
        }
        let bytes = j.into_inner();
        assert_eq!(bytes.len(), JOURNAL_MAGIC.len() + 5 * RECORD_LEN);
        let cp = parse_last_checkpoint(&bytes).unwrap();
        assert_eq!(cp.segments, 5);
        assert_eq!(cp.values, 500);
        assert_eq!(cp.bytes, 6 + 5 * 37);
    }

    #[test]
    fn torn_tail_record_falls_back() {
        let mut j = JournalWriter::new(Vec::new());
        j.record(Checkpoint { segments: 1, values: 10, bytes: 50 }).unwrap();
        j.record(Checkpoint { segments: 2, values: 20, bytes: 99 }).unwrap();
        let full = j.into_inner();
        // Every torn prefix of the final record must fall back to cp 1;
        // the full journal reads cp 2.
        for cut in 0..RECORD_LEN {
            let torn = &full[..full.len() - RECORD_LEN + cut];
            let cp = parse_last_checkpoint(torn).unwrap();
            assert_eq!(cp.segments, 1, "cut {cut} bytes into final record");
        }
        assert_eq!(parse_last_checkpoint(&full).unwrap().segments, 2);
        // A flipped bit in the tail record also falls back.
        let mut flipped = full.clone();
        let n = flipped.len();
        flipped[n - 10] ^= 0x40;
        assert_eq!(parse_last_checkpoint(&flipped).unwrap().segments, 1);
    }

    #[test]
    fn scan_journal_reports_valid_prefix_length() {
        let mut j = JournalWriter::new(Vec::new());
        j.record(Checkpoint { segments: 1, values: 36, bytes: 60 }).unwrap();
        j.record(Checkpoint { segments: 2, values: 72, bytes: 110 }).unwrap();
        let mut bytes = j.into_inner();
        let clean_len = bytes.len();
        assert_eq!(scan_journal(&bytes).1, clean_len);
        // A torn third record doesn't extend the valid prefix.
        bytes.extend_from_slice(&[0xAB; RECORD_LEN - 5]);
        let (cp, len) = scan_journal(&bytes);
        assert_eq!(cp.unwrap().segments, 2);
        assert_eq!(len, clean_len);
        assert_eq!(scan_journal(b"JUNK").1, 0);
    }

    #[test]
    fn headerless_or_empty_journal_is_none() {
        assert_eq!(parse_last_checkpoint(&[]), None);
        assert_eq!(parse_last_checkpoint(b"JUNKJUNKJUNK"), None);
        assert_eq!(parse_last_checkpoint(&JOURNAL_MAGIC), None);
        // Magic + torn first record: still no committed prefix.
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(parse_last_checkpoint(&bytes), None);
    }

    #[test]
    fn regressing_record_stops_the_scan() {
        // A corrupt-but-CRC-valid regression (can only happen through
        // tampering) must not extend the committed prefix.
        let mut j = JournalWriter::new(Vec::new());
        j.record(Checkpoint { segments: 3, values: 30, bytes: 90 }).unwrap();
        j.record(Checkpoint { segments: 1, values: 10, bytes: 40 }).unwrap();
        j.record(Checkpoint { segments: 9, values: 90, bytes: 999 }).unwrap();
        let cp = parse_last_checkpoint(&j.into_inner()).unwrap();
        assert_eq!(cp.segments, 3);
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

    #[test]
    fn journal_file_lifecycle() {
        let artifact = tmp("artifact.pstrs");
        let jp = journal_path(&artifact);
        assert!(jp.to_string_lossy().ends_with(".pstrs.journal"));
        {
            let f = File::create(&jp).unwrap();
            let mut j = JournalWriter::new(f);
            j.record(Checkpoint { segments: 2, values: 72, bytes: 300 }).unwrap();
        }
        let cp = parse_last_checkpoint(&std::fs::read(&jp).unwrap()).unwrap();
        assert_eq!(cp.bytes, 300);
        // Resume appends to the existing sequence without re-writing magic.
        {
            let f = OpenOptions::new().append(true).open(&jp).unwrap();
            let mut j = JournalWriter::resume(f);
            j.record(Checkpoint { segments: 3, values: 108, bytes: 450 }).unwrap();
        }
        let cp = parse_last_checkpoint(&std::fs::read(&jp).unwrap()).unwrap();
        assert_eq!(cp.segments, 3);
        remove_journal(&artifact).unwrap();
        assert!(!jp.exists());
        remove_journal(&artifact).unwrap(); // idempotent
    }
}
