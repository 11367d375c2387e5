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
//!   each batch of blocks, then fsyncs once. The span CRC
//!   covers every byte since the previous record, so one data fsync
//!   makes the batch and its commit durable together. Artifacts are
//!   append-only: no write ever overwrites committed bytes.
//!
//! Every sink syncs through one [`SyncHandle`], and every commit's sync
//! runs off the caller's thread: one helper thread per writer syncs
//! commit k while the caller compresses batch k+1, and the writer's next
//! write, commit or close waits for that sync first. So the sink sees
//! each commit's sync right after its record and before any later
//! write; only the caller's work between two commits overlaps the sync.
//!
//! Recovery is the format's own walk: the block store walks its
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
//! Sinks are abstracted by [`SyncWrite`] (a `Write` that hands out a
//! [`SyncHandle`]), so the fault-injection harness can interpose on every
//! byte and fsync.
//! Sources are abstracted by [`ReadAt`] (positional reads through
//! `&self`), so one open file can serve many threads at once and the
//! same harness can interpose on every read.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

use checksum::{crc32, Crc32};

pub mod retry;

pub use retry::{read_exact_retry, RetryPolicy, RetryStats};

/// A call that syncs a sink from another thread: what
/// [`SyncWrite::sync_handle`] returns. Each call must not return until
/// every byte the sink accepted before the call is durable.
pub type SyncHandle = Box<dyn FnMut() -> io::Result<()> + Send>;

/// A byte sink that can force its contents to stable storage.
pub trait SyncWrite: Write {
    /// A handle that syncs this same sink, from any thread: the one way
    /// [`Journaled`] makes the sink's bytes durable. In-memory sinks are
    /// their own stable storage, so their handle is a no-op.
    ///
    /// # Errors
    /// Any error making the handle (for files: duplicating the descriptor).
    fn sync_handle(&self) -> io::Result<SyncHandle>;
}

impl SyncWrite for File {
    /// A second descriptor of the same open file: an fsync through it
    /// covers every write made through this one. It is `sync_all` (fsync,
    /// not fdatasync) so file-size metadata from appends is durable too —
    /// a checkpoint must never describe bytes the filesystem could forget.
    fn sync_handle(&self) -> io::Result<SyncHandle> {
        let file = self.try_clone()?;
        Ok(Box::new(move || timed_fsync(|| file.sync_all())))
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
    fn sync_handle(&self) -> io::Result<SyncHandle> {
        Ok(Box::new(|| Ok(())))
    }
}

impl<W: SyncWrite + ?Sized> SyncWrite for &mut W {
    fn sync_handle(&self) -> io::Result<SyncHandle> {
        (**self).sync_handle()
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

/// First bytes of every commit record. A store walker tries its own
/// checksummed framing first and takes these bytes as a record only
/// where that fails.
pub const COMMIT_MAGIC: [u8; 4] = *b"PSTC";
/// Bytes per commit record: magic, segments, values, bytes (u64 LE
/// each), the span CRC32 and the CRC32 of the 32 bytes before it.
pub const RECORD_LEN: usize = 36;

/// One durable position in a growing artifact: everything at or before
/// it survives a crash byte-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Blocks committed.
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

    /// Weighs the `record` bytes found at offset `at` where a commit
    /// record belongs (the framing says so) but without its magic: torn
    /// bytes can look like that, and so can a record with a flipped
    /// magic. It is the latter when it names its own end offset and the
    /// span before it verifies; then, with bytes after it, it is damage.
    /// The walker stops here either way, and a frame that ends the
    /// artifact stays a torn tail for [`finish`](Self::finish).
    ///
    /// # Errors
    /// `InvalidData` for such a damaged record; any I/O error.
    pub fn unmarked(&mut self, at: u64, record: &[u8; RECORD_LEN]) -> io::Result<()> {
        self.hash_to(at)?;
        let end = at + RECORD_LEN as u64;
        let names_itself = record[20..28] == end.to_le_bytes();
        if names_itself && record[28..32] == self.span.finish().to_le_bytes() && end < self.size {
            return Err(damaged(self.span_start, end));
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
/// the append, commit and recover protocol behind the block store, the
/// one durable writer.
///
/// Bytes go out through [`Write`], which tracks the write position and
/// a running CRC32 of everything since the last commit.
/// [`commit`](Self::commit) appends the record sealing that span and
/// fsyncs once, so the batch and its commit become durable together.
/// For files, [`create`](Journaled::create) fsyncs the new file's
/// directory entry and [`resume`](Journaled::resume) cuts an interrupted
/// artifact back to its last verified commit. Every fsync goes through
/// the sink's [`SyncHandle`] or [`fsync_dir`], so `durable.fsyncs` and
/// `durable.fsync_us` see them all.
///
/// The first commit takes the sink's handle and spawns one helper
/// thread, and each commit hands its fsync to it and returns: at most
/// one sync is in flight. Every later write, flush, commit and `close`
/// first waits for it (the `durable.sync_wait` span), so nothing is
/// written after a record until its fsync returns. A failed sync poisons
/// the writer: that call and every later one return the error without
/// touching the sink, and the fsync is never retried (after a failed
/// fsync the kernel may already have dropped the unsynced pages).
/// Dropping the writer waits for the in-flight sync and joins the helper.
pub struct Journaled<W: Write> {
    /// `None` until the first commit. Declared before `data`, so a drop
    /// joins the helper (and finishes its sync) before the sink goes.
    helper: Option<Helper>,
    data: W,
    committed: Checkpoint,
    sealed: Checkpoint,
    position: u64,
    span: Crc32,
    /// `(kind, message)` of the sync failure that poisoned the writer.
    poisoned: Option<(io::ErrorKind, String)>,
}

/// One thread that runs a [`SyncHandle`] once per ticket, and the
/// checkpoint its in-flight ticket makes durable.
struct Helper {
    /// `None` only while closing or dropping: closing it ends the
    /// thread's loop, and the thread returns its handle.
    tickets: Option<mpsc::Sender<()>>,
    done: mpsc::Receiver<io::Result<()>>,
    thread: Option<thread::JoinHandle<SyncHandle>>,
    in_flight: Option<Checkpoint>,
}

impl Helper {
    fn spawn(mut handle: SyncHandle) -> io::Result<Self> {
        let (tickets, requests) = mpsc::channel::<()>();
        let (results, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("durable-sync".into())
            .spawn(move || {
                for () in requests {
                    if results.send(handle()).is_err() {
                        break;
                    }
                }
                handle
            })?;
        Ok(Self {
            tickets: Some(tickets),
            done,
            thread: Some(thread),
            in_flight: None,
        })
    }

    /// Starts the sync that makes `cp` durable. A helper that has died
    /// drops the ticket, and [`settle`](Self::settle) reports it.
    fn hand_off(&mut self, cp: Checkpoint) {
        if let Some(tickets) = &self.tickets {
            let _ = tickets.send(());
        }
        self.in_flight = Some(cp);
    }

    /// Waits for the in-flight sync, if any: its checkpoint and result.
    fn settle(&mut self) -> Option<(Checkpoint, io::Result<()>)> {
        let cp = self.in_flight.take()?;
        let _span = telemetry::span("durable.sync_wait");
        let result = self.done.recv().unwrap_or_else(|_| Err(died()));
        Some((cp, result))
    }

    /// Ends the thread and takes its handle back.
    fn into_handle(mut self) -> io::Result<SyncHandle> {
        self.tickets = None;
        match self.thread.take().map(thread::JoinHandle::join) {
            Some(Ok(handle)) => Ok(handle),
            _ => Err(died()),
        }
    }
}

fn died() -> io::Error {
    io::Error::other("the sync helper thread died")
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.tickets = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl<W: Write> Journaled<W> {
    /// A fresh, empty artifact over a caller-supplied sink.
    pub fn new(data: W) -> Self {
        Self::at(data, Checkpoint::default())
    }

    /// An artifact whose bytes up to `committed` are already in `data`.
    fn at(data: W, committed: Checkpoint) -> Self {
        Self {
            helper: None,
            data,
            committed,
            sealed: committed,
            position: committed.bytes,
            span: Crc32::new(),
            poisoned: None,
        }
    }

    /// Bytes written so far, committed or not.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The last durable checkpoint: everything at or before it survives
    /// a crash. A commit whose sync is still in flight is not in it yet.
    #[must_use]
    pub fn committed(&self) -> Checkpoint {
        self.committed
    }

    /// The last checkpoint whose commit record has been written: durable
    /// once its sync settles.
    #[must_use]
    pub fn sealed(&self) -> Checkpoint {
        self.sealed
    }

    /// Waits for the in-flight sync, if any, and fails if this or an
    /// earlier sync failed.
    fn settle(&mut self) -> io::Result<()> {
        if let Some((cp, result)) = self.helper.as_mut().and_then(Helper::settle) {
            if let Err(e) = &result {
                self.poisoned = Some((e.kind(), e.to_string()));
            }
            result?;
            self.committed = cp;
        }
        match &self.poisoned {
            Some((kind, msg)) => {
                Err(io::Error::new(*kind, format!("an earlier sync failed: {msg}")))
            }
            None => Ok(()),
        }
    }
}

impl<W: SyncWrite> Journaled<W> {
    /// Commits everything written since the previous commit as
    /// `segments` segments (or blocks) covering `values` source values:
    /// appends the record sealing that span and returns with its fsync in
    /// flight on the helper thread. The first commit takes the sink's
    /// [`SyncHandle`] and spawns the helper before it writes anything, so
    /// a sink that cannot give one fails here with nothing written. Once
    /// settled (by the next write, commit or `close`, which wait for it),
    /// recovery finds this checkpoint (or a later one).
    pub fn commit(&mut self, segments: u64, values: u64) -> io::Result<()> {
        self.settle()?;
        let _span = telemetry::span("durable.commit_batch");
        let helper = match &mut self.helper {
            Some(helper) => helper,
            none => none.insert(Helper::spawn(self.data.sync_handle()?)?),
        };
        let cp = Checkpoint {
            segments,
            values,
            bytes: self.position + RECORD_LEN as u64,
        };
        self.data.write_all(&cp.record(std::mem::take(&mut self.span).finish()))?;
        self.position = cp.bytes;
        self.sealed = cp;
        telemetry::counter_add("durable.checkpoints", 1);
        helper.hand_off(cp);
        Ok(())
    }

    /// Waits for the in-flight sync, syncs the data one last time through
    /// the same handle on the caller's thread (bytes written since the
    /// last commit, such as a terminator or an index) and returns the
    /// sink and the last checkpoint.
    pub fn close(mut self) -> io::Result<(W, Checkpoint)> {
        self.settle()?;
        let mut sync = match self.helper.take() {
            Some(helper) => helper.into_handle()?,
            None => self.data.sync_handle()?,
        };
        sync()?;
        Ok((self.data, self.committed))
    }
}

impl<W: Write> Write for Journaled<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.settle()?;
        let n = self.data.write(buf)?;
        self.span.update(&buf[..n]);
        self.position += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.settle()?;
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
        timed_fsync(|| data.sync_all())?;
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

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Write(usize),
        Sync,
    }

    type Log = std::sync::Arc<std::sync::Mutex<Vec<Ev>>>;

    /// A sink that logs each write and sync. Its sync handle first runs
    /// `before_sync(n)` for its n-th call (from 0), so a test can gate,
    /// delay or fail a sync, and logs the sync only if that succeeds.
    struct Logged {
        log: Log,
        before_sync: std::sync::Arc<dyn Fn(usize) -> io::Result<()> + Send + Sync>,
    }

    fn logged(
        before_sync: impl Fn(usize) -> io::Result<()> + Send + Sync + 'static,
    ) -> (Logged, Log) {
        let log = Log::default();
        let sink = Logged { log: log.clone(), before_sync: std::sync::Arc::new(before_sync) };
        (sink, log)
    }

    fn events(log: &Log) -> Vec<Ev> {
        log.lock().unwrap().clone()
    }

    impl Write for Logged {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.log.lock().unwrap().push(Ev::Write(buf.len()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SyncWrite for Logged {
        fn sync_handle(&self) -> io::Result<SyncHandle> {
            let (log, before_sync) = (self.log.clone(), self.before_sync.clone());
            let mut calls = 0;
            Ok(Box::new(move || {
                calls += 1;
                before_sync(calls - 1)?;
                log.lock().unwrap().push(Ev::Sync);
                Ok(())
            }))
        }
    }

    #[test]
    fn commit_returns_with_its_sync_in_flight_and_the_next_write_waits() {
        // Each handle sync waits for a go-ahead the test sends only after
        // `commit` returned: a sync on the caller's thread would time out
        // instead. `close`'s final sync runs the same handle.
        let (go, gate) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        let (sink, log) = logged(move |_| {
            let wait = std::time::Duration::from_secs(10);
            gate.lock().unwrap().recv_timeout(wait).map_err(io::Error::other)
        });
        let mut j = Journaled::new(sink);
        j.write_all(&[1; CHUNK]).unwrap();
        j.commit(1, 4).unwrap();
        assert_eq!(j.sealed(), cp(1));
        assert_eq!(j.committed(), Checkpoint::default(), "durable only once its sync returns");
        assert_eq!(events(&log), [Ev::Write(CHUNK), Ev::Write(RECORD_LEN)]);
        go.send(()).unwrap();
        j.write_all(&[2; CHUNK]).unwrap();
        assert_eq!(j.committed(), cp(1));
        let order = [Ev::Write(CHUNK), Ev::Write(RECORD_LEN), Ev::Sync, Ev::Write(CHUNK)];
        assert_eq!(events(&log), order, "the write waited for the sync");
        j.commit(2, 8).unwrap();
        go.send(()).unwrap();
        go.send(()).unwrap();
        assert_eq!(j.close().unwrap().1, cp(2));
        assert_eq!(events(&log)[4..], [Ev::Write(RECORD_LEN), Ev::Sync, Ev::Sync]);
    }

    #[test]
    fn a_sink_that_cannot_give_a_handle_fails_its_first_commit_unwritten() {
        struct NoHandle(Vec<u8>);
        impl Write for NoHandle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.write(buf)
            }

            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl SyncWrite for NoHandle {
            fn sync_handle(&self) -> io::Result<SyncHandle> {
                Err(io::Error::other("no descriptor left"))
            }
        }
        let mut j = Journaled::new(NoHandle(Vec::new()));
        j.write_all(&[1; CHUNK]).unwrap();
        let err = j.commit(1, 4).unwrap_err();
        assert!(err.to_string().contains("no descriptor left"), "{err}");
        assert_eq!(j.sealed(), Checkpoint::default());
        assert_eq!(j.data.0, [1; CHUNK], "no record was written");
    }

    #[test]
    fn a_failed_sync_poisons_the_writer_and_is_never_retried() {
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = calls.clone();
        let (sink, log) = logged(move |n| {
            counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n == 1 {
                return Err(io::Error::other("disk gone"));
            }
            Ok(())
        });
        let mut j = Journaled::new(sink);
        for i in 1..=2 {
            j.write_all(&[i as u8; CHUNK]).unwrap();
            j.commit(i, i * 4).unwrap();
        }
        // Commit 2's sync failed on the helper: the next call reports it.
        let err = j.write_all(&[3; CHUNK]).unwrap_err();
        assert!(err.to_string().contains("disk gone"), "{err}");
        assert_eq!(j.committed(), cp(1), "the last good checkpoint stays");
        let seen = events(&log);
        assert!(j.write_all(&[3; CHUNK]).is_err());
        assert!(j.flush().is_err());
        assert!(j.commit(3, 12).is_err());
        assert_eq!(j.committed(), cp(1));
        let err = j.close().err().expect("close fails too");
        assert!(err.to_string().contains("disk gone"), "{err}");
        assert_eq!(events(&log), seen, "nothing reaches the sink after the failure");
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2, "never retried");
    }

    #[test]
    fn dropping_a_writer_waits_for_its_sync() {
        // The sync waits for a go-ahead; the drop, on its own thread,
        // must not return before the sync does.
        let (go, gate) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        let (sink, log) = logged(move |_| gate.lock().unwrap().recv().map_err(io::Error::other));
        let mut j = Journaled::new(sink);
        j.write_all(&[1; CHUNK]).unwrap();
        j.commit(1, 4).unwrap();
        let (dropped, returned) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(j);
            dropped.send(()).unwrap();
        });
        let early = returned.recv_timeout(std::time::Duration::from_millis(200));
        assert!(early.is_err(), "drop returned with its sync in flight");
        go.send(()).unwrap();
        returned.recv().unwrap();
        dropper.join().unwrap();
        assert_eq!(events(&log), [Ev::Write(CHUNK), Ev::Write(RECORD_LEN), Ev::Sync]);
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
