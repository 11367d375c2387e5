//! Disk-backed, PaSTRI-compressed ERI block store with per-block random
//! access.
//!
//! This is the storage infrastructure the paper proposes around the
//! compressor (Sec. III: store compressed ERIs on disk — or in memory —
//! instead of recomputing them every SCF iteration). Each shell-quartet
//! block is compressed independently (PaSTRI's "block-level scope"), so a
//! consumer can fetch exactly the quartets it needs without touching the
//! rest of the file — the access pattern of integral-direct Fock builds.
//!
//! File layout (version 2, current):
//!
//! ```text
//! magic            8 bytes  "ERISTOR2"
//! error bound      8 bytes  f64 LE
//! num_subblocks    8 bytes  u64 LE
//! subblock_size    8 bytes  u64 LE
//! num_blocks       8 bytes  u64 LE
//! index offset     8 bytes  u64 LE  (absolute file offset of the index)
//! header_crc32     4 bytes  u32 LE  (CRC32 of the 48 bytes above)
//! blocks           num_blocks × PaSTRI containers, back to back
//! index            num_blocks × (offset u64 LE, length u64 LE,
//!                                payload_crc32 u32 LE)
//! index_crc32      4 bytes  u32 LE  (CRC32 of the index bytes above)
//! ```
//!
//! The per-entry `payload_crc32` covers the block's container
//! bytes as written, so [`StoreReader::scrub`] can certify the whole
//! store — and [`StoreReader::read_block`] can pin damage to one block —
//! without decompressing anything.
//!
//! The index is written last (after all blocks), so a writer streams
//! blocks without knowing their sizes in advance; the fixed-size header
//! slots for block count and index offset are patched on close (along
//! with the header CRC, which is computed over the final header bytes).
//!
//! Reads run through a [`RetryPolicy`]: transient `Interrupted` /
//! `WouldBlock` / `TimedOut` errors — routine on congested parallel file
//! systems — are retried with bounded exponential backoff instead of
//! failing an SCF iteration. The reader is generic over
//! [`durable::ReadAt`] — positional reads through `&self` — so one
//! [`StoreReader`] serves any number of threads at once, and tests
//! inject faults without touching the filesystem.

use std::fs::File;
use std::io::{self, ErrorKind, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use checksum::crc32;
use durable::retry::RetryStats;
use durable::{Checkpoint, Journaled, ReadAt};
use pastri::{BlockGeometry, Compressor};
use rayon::prelude::*;

/// Re-exported from [`durable::retry`]: the shared transient-I/O backoff
/// policy (this crate's read path and the soak workload generator share
/// one definition).
pub use durable::retry::RetryPolicy;

const MAGIC_V2: [u8; 8] = *b"ERISTOR2";
/// Header bytes covered by the v2 header CRC (everything before it).
const HEADER_BODY_LEN: u64 = 8 + 8 + 8 + 8 + 8 + 8;
/// Total v2 header length (body + header CRC32). Public so tooling and
/// fault injectors can locate block spans without re-deriving the
/// layout.
pub const HEADER_LEN_V2: u64 = HEADER_BODY_LEN + 4;
/// Size of one v2 index entry: offset u64 + len u64 + payload CRC32.
pub const INDEX_ENTRY_V2: u64 = 20;

/// Errors from the block store.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Structurally invalid store. `block`/`offset` localize the damage
    /// when it is attributable to one block's index entry or payload.
    Corrupt {
        /// Zero-based block index, when the damage is per-block.
        block: Option<usize>,
        /// Absolute file offset of the damaged region, if known.
        offset: Option<u64>,
        /// What check failed.
        reason: &'static str,
    },
    /// A stored CRC32 did not match the bytes on disk.
    Checksum {
        /// Damaged block, or `None` for the header/index checksums.
        block: Option<usize>,
        /// Absolute file offset of the checksummed region, if known.
        offset: Option<u64>,
        /// CRC32 recorded in the store.
        expected: u32,
        /// CRC32 of the bytes actually read.
        actual: u32,
    },
    Decompress(pastri::DecompressError),
    /// Requested block index ≥ number of blocks.
    OutOfRange { index: usize, blocks: usize },
}

impl StoreError {
    /// Corruption with no location attached yet.
    #[must_use]
    pub(crate) const fn corrupt(reason: &'static str) -> Self {
        StoreError::Corrupt {
            block: None,
            offset: None,
            reason,
        }
    }

    /// Attributes a corruption/checksum error to block `b`.
    #[must_use]
    pub(crate) fn with_block(self, b: usize) -> Self {
        match self {
            StoreError::Corrupt { offset, reason, .. } => StoreError::Corrupt {
                block: Some(b),
                offset,
                reason,
            },
            StoreError::Checksum {
                offset,
                expected,
                actual,
                ..
            } => StoreError::Checksum {
                block: Some(b),
                offset,
                expected,
                actual,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Corrupt { block, offset, reason } => {
                write!(f, "corrupt store: {reason}")?;
                if let Some(b) = block {
                    write!(f, " (block {b})")?;
                }
                if let Some(o) = offset {
                    write!(f, " at offset {o}")?;
                }
                Ok(())
            }
            StoreError::Checksum {
                block,
                offset,
                expected,
                actual,
            } => {
                match block {
                    Some(b) => write!(f, "checksum mismatch in block {b}")?,
                    None => write!(f, "store metadata checksum mismatch")?,
                }
                if let Some(o) = offset {
                    write!(f, " at offset {o}")?;
                }
                write!(f, ": stored {expected:#010x}, computed {actual:#010x}")
            }
            StoreError::Decompress(e) => write!(f, "decompress error: {e}"),
            StoreError::OutOfRange { index, blocks } => {
                write!(f, "block {index} out of range (store has {blocks})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<pastri::DecompressError> for StoreError {
    fn from(e: pastri::DecompressError) -> Self {
        StoreError::Decompress(e)
    }
}

/// Counters a [`StoreReader`] accumulates across its lifetime:
/// transient-fault handling and self-healing activity. Query with
/// [`StoreReader::read_stats`] to see what a run's reads actually cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadStats {
    /// Transient I/O errors absorbed by the retry policy.
    pub transient_retries: u64,
    /// Total microseconds slept in retry backoff.
    pub backoff_micros: u64,
    /// Blocks whose checksum failed but that were rebuilt from their
    /// container's parity section (and re-certified against the index
    /// CRC) before being served.
    pub blocks_repaired: u64,
    /// Blocks that failed terminally: damaged beyond the parity budget
    /// (or carrying no parity at all).
    pub blocks_dropped: u64,
}

/// [`ReadStats`] as the reader keeps them: atomics, so threads sharing
/// one [`StoreReader`] all count into the same totals.
#[derive(Debug, Default)]
struct SharedStats {
    transient_retries: AtomicU64,
    backoff_micros: AtomicU64,
    blocks_repaired: AtomicU64,
    blocks_dropped: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> ReadStats {
        ReadStats {
            transient_retries: self.transient_retries.load(Ordering::Relaxed),
            backoff_micros: self.backoff_micros.load(Ordering::Relaxed),
            blocks_repaired: self.blocks_repaired.load(Ordering::Relaxed),
            blocks_dropped: self.blocks_dropped.load(Ordering::Relaxed),
        }
    }

    fn repaired(&self) {
        self.blocks_repaired.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("store.blocks_repaired", 1);
    }

    fn dropped(&self) {
        self.blocks_dropped.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("store.blocks_dropped", 1);
    }
}

/// Reads the CRC32 stored at `crc_at` and checks it against `body`;
/// `offset` locates a mismatch in the error.
fn read_stored_crc<R: ReadAt>(
    r: &R,
    policy: &RetryPolicy,
    stats: &SharedStats,
    body: &[u8],
    crc_at: u64,
    offset: u64,
) -> Result<(), StoreError> {
    let mut crc_buf = [0u8; 4];
    read_exact_retry(r, &mut crc_buf, crc_at, policy, stats)?;
    let stored = u32::from_le_bytes(crc_buf);
    let actual = crc32(body);
    if stored != actual {
        return Err(StoreError::Checksum {
            block: None,
            offset: Some(offset),
            expected: stored,
            actual,
        });
    }
    Ok(())
}

/// Fills `buf` from `offset` via the shared [`durable::retry`] loop,
/// then folds the call's retry cost into this reader's stats and the
/// `store.transient_retries` / `store.backoff_us` telemetry counters —
/// the per-store attribution the shared loop deliberately leaves to its
/// callers. Accounted even when the read ultimately fails.
fn read_exact_retry<R: ReadAt>(
    r: &R,
    buf: &mut [u8],
    offset: u64,
    policy: &RetryPolicy,
    stats: &SharedStats,
) -> io::Result<()> {
    let mut rs = RetryStats::default();
    let result = durable::retry::read_exact_retry(r, buf, offset, policy, &mut rs);
    if rs.transient_retries > 0 {
        stats.transient_retries.fetch_add(rs.transient_retries, Ordering::Relaxed);
        telemetry::counter_add("store.transient_retries", rs.transient_retries);
    }
    if rs.backoff_micros > 0 {
        stats.backoff_micros.fetch_add(rs.backoff_micros, Ordering::Relaxed);
        telemetry::counter_add("store.backoff_us", rs.backoff_micros);
    }
    result
}

/// Writes a block store: append blocks, then [`finish`](StoreWriter::finish).
///
/// Every store is journaled through [`durable::Journaled`]: every
/// `checkpoint_every` appended blocks the data is fsync'd and a
/// `<path>.journal` record commits the prefix, so after a crash
/// [`open_for_append`](Self::open_for_append) can truncate back to the
/// last checkpoint, rebuild the index by re-walking the committed
/// containers, and continue. A resumed store is byte-identical to an
/// uninterrupted one.
pub struct StoreWriter {
    out: Journaled<File, File>,
    path: PathBuf,
    compressor: Compressor,
    index: Vec<(u64, u64, u32)>,
    cursor: u64,
    checkpoint_every: usize,
}

impl StoreWriter {
    /// Creates a store at `path` for blocks of `geometry` at error bound
    /// `eb` (truncating any existing store and journal). Every
    /// `checkpoint_every` appended blocks, the file is fsync'd and a
    /// checkpoint record is durably appended to `<path>.journal`. A
    /// crash then loses at most the blocks since the last checkpoint —
    /// recover with [`open_for_append`](Self::open_for_append).
    ///
    /// # Errors
    /// `InvalidInput` (as `StoreError::Io`) if `checkpoint_every` is 0.
    pub fn create_durable(
        path: &Path,
        geometry: BlockGeometry,
        eb: f64,
        checkpoint_every: usize,
    ) -> Result<Self, StoreError> {
        check_checkpoint_every(checkpoint_every)?;
        let out = Journaled::create(path)?;
        Self::over(out, path, geometry, eb, checkpoint_every, Vec::new())
    }

    /// Resumes an interrupted write at `path`: [`Journaled::resume`]
    /// loads the last valid checkpoint from `<path>.journal` and
    /// truncates the store to the committed prefix; the index is then
    /// rebuilt by re-walking the committed containers. Returns the
    /// writer plus the checkpoint — `checkpoint.segments` blocks are
    /// already in the store, so the producer resumes appending from
    /// block `checkpoint.segments`.
    ///
    /// With no usable journal the store restarts from scratch (the
    /// checkpoint comes back all-zero).
    ///
    /// # Errors
    /// `Corrupt` if the journal claims more bytes than the file holds,
    /// if the header disagrees with `geometry`/`eb`, or if the committed
    /// prefix does not parse back into `checkpoint.segments` containers.
    pub fn open_for_append(
        path: &Path,
        geometry: BlockGeometry,
        eb: f64,
        checkpoint_every: usize,
    ) -> Result<(Self, Checkpoint), StoreError> {
        check_checkpoint_every(checkpoint_every)?;
        let mut out = Journaled::resume(path).map_err(|e| match e.kind() {
            ErrorKind::InvalidData => {
                StoreError::corrupt("journal claims more durable bytes than the store holds")
            }
            _ => StoreError::Io(e),
        })?;
        let cp = out.committed();
        let index = if cp.bytes == 0 {
            Vec::new() // nothing committed: a fresh store
        } else {
            committed_index(out.data_mut(), cp, geometry, eb)?
        };
        let w = Self::over(out, path, geometry, eb, checkpoint_every, index)?;
        Ok((w, cp))
    }

    /// A writer over `out` whose committed prefix holds `index`'s
    /// blocks. An empty artifact first gets the placeholder header,
    /// rewritten with final values (and CRC) on finish(); the first
    /// commit's data fsync makes it durable.
    fn over(
        mut out: Journaled<File, File>,
        path: &Path,
        geometry: BlockGeometry,
        eb: f64,
        checkpoint_every: usize,
        index: Vec<(u64, u64, u32)>,
    ) -> Result<Self, StoreError> {
        let mut cursor = out.committed().bytes;
        if cursor == 0 {
            out.data_mut().write_all(&header_bytes(eb, geometry, 0, 0))?;
            out.data_mut().write_all(&0u32.to_le_bytes())?;
            cursor = HEADER_LEN_V2;
        }
        Ok(Self {
            out,
            path: path.to_path_buf(),
            compressor: Compressor::new(geometry, eb),
            index,
            cursor,
            checkpoint_every,
        })
    }

    /// Writes one compressed block and commits a checkpoint once
    /// `checkpoint_every` blocks have accumulated since the last one.
    fn push(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.out.data_mut().write_all(payload)?;
        self.index
            .push((self.cursor, payload.len() as u64, crc32(payload)));
        self.cursor += payload.len() as u64;
        let blocks = self.index.len() as u64;
        if blocks - self.out.committed().segments >= self.checkpoint_every as u64 {
            self.out.commit(Checkpoint {
                segments: blocks,
                values: blocks * self.compressor.geometry().block_size() as u64,
                bytes: self.cursor,
            })?;
        }
        Ok(())
    }

    /// Compresses and appends one full block.
    ///
    /// # Panics
    /// Panics if `block.len() != geometry.block_size()`.
    pub fn append_block(&mut self, block: &[f64]) -> Result<(), StoreError> {
        assert_eq!(
            block.len(),
            self.compressor.geometry().block_size(),
            "append_block needs exactly one block"
        );
        let payload = self.compressor.compress(block);
        self.push(&payload)
    }

    /// Compresses and appends a batch of full blocks, fanning the
    /// compression out across the parallel runtime (the file writes stay
    /// sequential, so the store is byte-identical to appending the same
    /// blocks one at a time).
    ///
    /// # Panics
    /// Panics if `values.len()` is not a multiple of
    /// `geometry.block_size()`.
    pub fn append_blocks(&mut self, values: &[f64]) -> Result<(), StoreError> {
        let bs = self.compressor.geometry().block_size();
        assert_eq!(
            values.len() % bs,
            0,
            "append_blocks needs whole blocks ({bs} values each)"
        );
        let compressor = &self.compressor;
        let payloads: Vec<Vec<u8>> = values
            .par_chunks(bs)
            .map(|block| compressor.compress(block))
            .collect();
        for payload in payloads {
            self.push(&payload)?;
        }
        Ok(())
    }

    /// Writes the checksummed index and the final header, then makes
    /// the finished store durable before its journal is removed. Returns
    /// the block count.
    pub fn finish(mut self) -> Result<usize, StoreError> {
        let index_offset = self.cursor;
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_V2 as usize);
        for &(off, len, crc) in &self.index {
            index_bytes.extend_from_slice(&off.to_le_bytes());
            index_bytes.extend_from_slice(&len.to_le_bytes());
            index_bytes.extend_from_slice(&crc.to_le_bytes());
        }
        let header = header_bytes(
            self.compressor.error_bound(),
            self.compressor.geometry(),
            self.index.len() as u64,
            index_offset,
        );
        let file = self.out.data_mut();
        file.write_all(&index_bytes)?;
        file.write_all(&crc32(&index_bytes).to_le_bytes())?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.write_all(&crc32(&header).to_le_bytes())?;
        self.out.finish(&self.path)?;
        Ok(self.index.len())
    }
}

/// The index of a store's committed prefix (`cp.bytes` long), after a
/// lenient header check: count/index/CRC slots hold placeholders until
/// finish(), but magic, error bound, and geometry must already match
/// what the resume asks for. The prefix must be exactly `cp.segments`
/// whole containers back to back.
fn committed_index(
    file: &File,
    cp: Checkpoint,
    geometry: BlockGeometry,
    eb: f64,
) -> Result<Vec<(u64, u64, u32)>, StoreError> {
    if cp.bytes < HEADER_LEN_V2 {
        return Err(StoreError::corrupt("committed prefix is shorter than the header"));
    }
    let mut prefix = vec![0u8; cp.bytes as usize];
    file.read_exact_at(&mut prefix, 0)?;
    let header = &prefix[..HEADER_BODY_LEN as usize];
    if header[..8] != MAGIC_V2 {
        return Err(StoreError::corrupt("bad magic"));
    }
    let h_eb = f64::from_le_bytes(header[8..16].try_into().unwrap());
    let h_num_sb = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let h_sb_size = u64::from_le_bytes(header[24..32].try_into().unwrap());
    if h_eb != eb
        || h_num_sb != geometry.num_subblocks as u64
        || h_sb_size != geometry.subblock_size as u64
    {
        return Err(StoreError::corrupt(
            "resume parameters do not match the store header",
        ));
    }
    let blocks_bytes = &prefix[HEADER_LEN_V2 as usize..];
    let mut index = Vec::new();
    let mut pos = 0usize;
    while pos < blocks_bytes.len() {
        let (_, consumed) = pastri::inspect_prefix(&blocks_bytes[pos..]).map_err(|_| {
            StoreError::corrupt("unparseable container inside the committed prefix")
                .with_block(index.len())
        })?;
        let payload = &blocks_bytes[pos..pos + consumed];
        index.push((HEADER_LEN_V2 + pos as u64, consumed as u64, crc32(payload)));
        pos += consumed;
    }
    if index.len() as u64 != cp.segments {
        return Err(StoreError::corrupt(
            "committed block count does not match the journal",
        ));
    }
    Ok(index)
}

fn check_checkpoint_every(checkpoint_every: usize) -> Result<(), StoreError> {
    if checkpoint_every == 0 {
        return Err(StoreError::Io(io::Error::new(
            ErrorKind::InvalidInput,
            "checkpoint_every must be at least 1",
        )));
    }
    Ok(())
}

/// The 48 checksummed header bytes (magic through index offset).
fn header_bytes(eb: f64, geometry: BlockGeometry, num_blocks: u64, index_offset: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_BODY_LEN as usize);
    h.extend_from_slice(&MAGIC_V2);
    h.extend_from_slice(&eb.to_le_bytes());
    h.extend_from_slice(&(geometry.num_subblocks as u64).to_le_bytes());
    h.extend_from_slice(&(geometry.subblock_size as u64).to_le_bytes());
    h.extend_from_slice(&num_blocks.to_le_bytes());
    h.extend_from_slice(&index_offset.to_le_bytes());
    h
}

/// One index entry: where the block's container lives, and the CRC32 of
/// those bytes.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    offset: u64,
    len: u64,
    crc: u32,
}

/// One damaged block found by [`StoreReader::scrub`].
#[derive(Debug)]
pub struct BlockDamage {
    /// Zero-based block index.
    pub block: usize,
    /// Absolute file offset of the block's container.
    pub offset: u64,
    /// What was wrong with it.
    pub error: StoreError,
    /// The container rebuilt from its own parity section, certified
    /// byte-identical to what the writer stored by the index CRC;
    /// `None` when the damage exceeds the parity budget.
    pub repaired: Option<Vec<u8>>,
}

/// Result of a full-store [`StoreReader::scrub`] scan.
#[derive(Debug)]
pub struct ScrubReport {
    /// Blocks scanned (the store's block count).
    pub blocks: usize,
    /// Every block that failed verification.
    pub damaged: Vec<BlockDamage>,
}

impl ScrubReport {
    /// Did every block verify?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }

    /// Damaged blocks whose containers rebuilt byte-identical.
    #[must_use]
    pub fn repairable(&self) -> usize {
        self.damaged.iter().filter(|d| d.repaired.is_some()).count()
    }

    /// Splices every rebuilt container into `bytes`, the scanned store
    /// file's contents. Unrepairable blocks are left as they are.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] if a rebuilt container would not fit
    /// inside `bytes` (they are not the bytes that were scanned).
    pub fn heal(&self, bytes: &mut [u8]) -> Result<(), StoreError> {
        for d in &self.damaged {
            let Some(container) = &d.repaired else {
                continue;
            };
            let span = usize::try_from(d.offset)
                .ok()
                .and_then(|start| Some(start..start.checked_add(container.len())?))
                .filter(|span| span.end <= bytes.len())
                .ok_or(StoreError::Corrupt {
                    block: Some(d.block),
                    offset: Some(d.offset),
                    reason: "repaired block falls outside the file",
                })?;
            bytes[span].copy_from_slice(container);
        }
        Ok(())
    }
}

/// Read side: random access to stored blocks. Generic over the byte
/// source so tests can inject I/O faults; production code uses
/// [`StoreReader::open`], which reads from a [`File`].
///
/// Every read is positional and takes `&self`, and the counters are
/// atomics, so one reader (one open file, one loaded index) serves any
/// number of threads at once.
#[derive(Debug)]
pub struct StoreReader<R: ReadAt = File> {
    source: R,
    retry: RetryPolicy,
    geometry: BlockGeometry,
    error_bound: f64,
    index: Vec<IndexEntry>,
    stats: SharedStats,
}

impl StoreReader<File> {
    /// Opens a store and loads its index.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::from_source(File::open(path)?, RetryPolicy::default())
    }
}

impl<R: ReadAt> StoreReader<R> {
    /// Opens a store from any positional byte source, retrying
    /// transient read errors per `retry`. Validates the header and
    /// index checksums and loads the index.
    pub fn from_source(source: R, retry: RetryPolicy) -> Result<Self, StoreError> {
        let stats = SharedStats::default();
        let file_len = source.size()?;
        let mut header = [0u8; HEADER_BODY_LEN as usize];
        read_exact_retry(&source, &mut header, 0, &retry, &stats)?;
        if header[..8] != MAGIC_V2 {
            return Err(StoreError::corrupt("bad magic"));
        }
        read_stored_crc(&source, &retry, &stats, &header, HEADER_BODY_LEN, HEADER_BODY_LEN)?;

        let rd_u64 = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
        let eb = f64::from_le_bytes(header[8..16].try_into().unwrap());
        if !(eb.is_finite() && eb > 0.0) {
            return Err(StoreError::corrupt("invalid error bound"));
        }
        let num_sb = rd_u64(16) as usize;
        let sb_size = rd_u64(24) as usize;
        if num_sb == 0 || sb_size == 0 || num_sb.saturating_mul(sb_size) > (1 << 28) {
            return Err(StoreError::corrupt("implausible geometry"));
        }
        let num_blocks = rd_u64(32) as usize;
        let index_offset = rd_u64(40);
        // Index plausibility: every entry must fit in the file — checked
        // against the real file size *before* the index allocation, so a
        // hostile block count cannot request more memory than the file
        // could hold.
        let index_bytes_len = (num_blocks as u64).saturating_mul(INDEX_ENTRY_V2);
        if index_offset < HEADER_LEN_V2 || index_offset.saturating_add(index_bytes_len) > file_len {
            return Err(StoreError::corrupt("index out of bounds"));
        }
        let mut index_bytes = vec![0u8; index_bytes_len as usize];
        read_exact_retry(&source, &mut index_bytes, index_offset, &retry, &stats)?;
        let crc_at = index_offset + index_bytes_len;
        read_stored_crc(&source, &retry, &stats, &index_bytes, crc_at, index_offset)?;
        let mut index = Vec::with_capacity(num_blocks);
        for (i, entry) in index_bytes.chunks_exact(INDEX_ENTRY_V2 as usize).enumerate() {
            let off = u64::from_le_bytes(entry[..8].try_into().unwrap());
            let len = u64::from_le_bytes(entry[8..16].try_into().unwrap());
            let crc = u32::from_le_bytes(entry[16..20].try_into().unwrap());
            if off < HEADER_LEN_V2 || off.saturating_add(len) > index_offset {
                return Err(StoreError::corrupt("block entry out of bounds").with_block(i));
            }
            index.push(IndexEntry { offset: off, len, crc });
        }
        Ok(Self {
            source,
            retry,
            geometry: BlockGeometry::new(num_sb, sb_size),
            error_bound: eb,
            index,
            stats,
        })
    }

    /// Number of stored blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// Block geometry.
    #[must_use]
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    /// The error bound the store was written with.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Lifetime counters: transient retries absorbed, backoff slept,
    /// blocks repaired from parity, blocks lost — summed over every
    /// thread that has read through this reader.
    #[must_use]
    pub fn read_stats(&self) -> ReadStats {
        self.stats.snapshot()
    }

    /// Reads block `i`'s raw container bytes, unverified.
    fn read_block_raw(&self, i: usize) -> Result<(IndexEntry, Vec<u8>), StoreError> {
        let entry = *self.index.get(i).ok_or(StoreError::OutOfRange {
            index: i,
            blocks: self.index.len(),
        })?;
        let mut payload = vec![0u8; entry.len as usize];
        read_exact_retry(&self.source, &mut payload, entry.offset, &self.retry, &self.stats)?;
        Ok((entry, payload))
    }

    /// Reads block `i`'s raw container bytes and verifies its stored
    /// CRC32.
    fn read_block_bytes(&self, i: usize) -> Result<Vec<u8>, StoreError> {
        let (entry, payload) = self.read_block_raw(i)?;
        let actual = crc32(&payload);
        if entry.crc != actual {
            return Err(StoreError::Checksum {
                block: Some(i),
                offset: Some(entry.offset),
                expected: entry.crc,
                actual,
            });
        }
        Ok(payload)
    }

    /// Attempts to rebuild block `i`'s container from its own parity
    /// section. The repair is accepted only if the rebuilt bytes match
    /// the index CRC — i.e. they are bit-for-bit what the writer stored
    /// — so a wrong repair can never masquerade as a right one.
    fn try_repair_block(&self, i: usize) -> Option<Vec<u8>> {
        let (entry, payload) = self.read_block_raw(i).ok()?;
        let (repaired, report) = pastri::repair_container(&payload).ok()?;
        if report.is_fully_repaired() && crc32(&repaired) == entry.crc {
            Some(repaired)
        } else {
            None
        }
    }

    /// Reads and decompresses block `i` (random access: one positional
    /// read of the compressed payload). A block whose checksum fails is
    /// transparently rebuilt from its container's parity section when
    /// possible (counted in [`ReadStats::blocks_repaired`]); damage
    /// beyond the parity budget is reported with the block index and
    /// file offset attached (and counted in
    /// [`ReadStats::blocks_dropped`]).
    pub fn read_block(&self, i: usize) -> Result<Vec<f64>, StoreError> {
        self.read_block_noting_repair(i).map(|(values, _)| values)
    }

    /// [`read_block`](Self::read_block), also saying whether *this* read
    /// rebuilt the block from parity. Threads sharing the reader cannot
    /// learn that by diffing [`read_stats`](Self::read_stats) around
    /// the call — another thread's repair may land in between.
    pub fn read_block_noting_repair(&self, i: usize) -> Result<(Vec<f64>, bool), StoreError> {
        let (payload, repaired) = match self.read_block_bytes(i) {
            Ok(p) => (p, false),
            Err(e @ StoreError::Checksum { .. }) => match self.try_repair_block(i) {
                Some(rebuilt) => {
                    self.stats.repaired();
                    (rebuilt, true)
                }
                None => {
                    self.stats.dropped();
                    return Err(e);
                }
            },
            Err(e) => return Err(e),
        };
        match pastri::decompress(&payload) {
            Ok(values) => Ok((values, repaired)),
            Err(e) => {
                self.stats.dropped();
                Err(e.into())
            }
        }
    }

    /// Reads the whole store back as one stream (iteration order).
    pub fn read_all(&self) -> Result<Vec<f64>, StoreError> {
        let mut out = Vec::with_capacity(self.num_blocks() * self.geometry.block_size());
        for i in 0..self.num_blocks() {
            out.extend(self.read_block(i)?);
        }
        Ok(out)
    }

    /// Scans every block and reports all damage, instead of stopping at
    /// the first bad block like [`read_all`](Self::read_all), and tries
    /// to rebuild each damaged block from its container's parity
    /// section.
    ///
    /// Blocks are certified by their stored CRC32 — bit-exact payload
    /// bytes are exactly what the writer produced, so decodability
    /// follows without paying for decompression. A caller heals the
    /// store by splicing the rebuilt containers into a copy of the file
    /// ([`ScrubReport::heal`]) and atomically swapping it in.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport {
            blocks: self.num_blocks(),
            damaged: Vec::new(),
        };
        for i in 0..self.num_blocks() {
            match self.read_block_bytes(i) {
                Ok(_) => {}
                Err(e @ StoreError::Io(_)) => return Err(e), // the medium, not the data
                Err(error) => report.damaged.push(BlockDamage {
                    block: i,
                    offset: self.index[i].offset,
                    error,
                    repaired: self.try_repair_block(i),
                }),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable::journal_path;
    use faults::{FaultConfig, FaultyReader};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("eri-store-{}-{name}", std::process::id()))
    }

    fn patterned_block(geom: BlockGeometry, seed: usize) -> Vec<f64> {
        let mut block = Vec::with_capacity(geom.block_size());
        for sb in 0..geom.num_subblocks {
            let s = ((sb + seed) as f64 * 0.61).cos();
            for i in 0..geom.subblock_size {
                block.push(s * ((i as f64 + seed as f64) * 0.37).sin() * 1e-6);
            }
        }
        block
    }

    /// A finished store as raw bytes, plus each block's (offset, len).
    fn store_bytes(geom: BlockGeometry, eb: f64, blocks: &[Vec<f64>]) -> (Vec<u8>, Vec<(u64, u64)>) {
        let path = tmp(&format!("mk-{:p}", blocks.as_ptr()));
        let mut w = StoreWriter::create_durable(&path, geom, eb, 64).unwrap();
        for b in blocks {
            w.append_block(b).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        let spans = r.index.iter().map(|e| (e.offset, e.len)).collect();
        (bytes, spans)
    }

    #[test]
    fn batch_append_is_byte_identical_to_single_appends() {
        let geom = BlockGeometry::new(6, 8);
        let blocks: Vec<Vec<f64>> = (0..16).map(|b| patterned_block(geom, b)).collect();
        let flat: Vec<f64> = blocks.iter().flatten().copied().collect();
        let (expected, _) = store_bytes(geom, 1e-10, &blocks);

        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let path = tmp(&format!("batch-{threads}"));
            let mut w = StoreWriter::create_durable(&path, geom, 1e-10, 64).unwrap();
            pool.install(|| w.append_blocks(&flat)).unwrap();
            assert_eq!(w.finish().unwrap(), 16);
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(bytes, expected, "threads={threads}");
        }
    }

    #[test]
    fn durable_store_is_byte_identical_and_drops_journal_on_finish() {
        let geom = BlockGeometry::new(6, 8);
        let blocks: Vec<Vec<f64>> = (0..11).map(|b| patterned_block(geom, b)).collect();
        let (expected, _) = store_bytes(geom, 1e-10, &blocks);

        let path = tmp("durable-identical");
        let mut w = StoreWriter::create_durable(&path, geom, 1e-10, 3).unwrap();
        for b in &blocks {
            w.append_block(b).unwrap();
        }
        assert!(journal_path(&path).exists(), "journal alive mid-write");
        assert_eq!(w.finish().unwrap(), 11);
        assert!(!journal_path(&path).exists(), "journal removed on finish");
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_durable_store_resumes_byte_identical() {
        let geom = BlockGeometry::new(6, 8);
        let eb = 1e-10;
        let blocks: Vec<Vec<f64>> = (0..17).map(|b| patterned_block(geom, b)).collect();
        let (expected, _) = store_bytes(geom, eb, &blocks);

        let path = tmp("durable-resume");
        {
            let mut w = StoreWriter::create_durable(&path, geom, eb, 4).unwrap();
            for b in &blocks[..10] {
                w.append_block(b).unwrap();
            }
            // "Crash": dropped without finish. Blocks 8..10 were never
            // checkpointed and will be truncated away on resume.
        }
        let (mut w, cp) = StoreWriter::open_for_append(&path, geom, eb, 4).unwrap();
        assert_eq!(cp.segments, 8, "two full batches of 4 committed");
        assert_eq!(cp.values, 8 * geom.block_size() as u64);
        for b in &blocks[cp.segments as usize..] {
            w.append_block(b).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 17);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert!(!journal_path(&path).exists());

        // And the resumed store verifies clean.
        let r = StoreReader::open(&path).unwrap();
        assert!(r.scrub().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_for_append_without_journal_restarts() {
        let geom = BlockGeometry::new(4, 4);
        let path = tmp("durable-nojournal");
        {
            let mut w = StoreWriter::create_durable(&path, geom, 1e-9, 2).unwrap();
            w.append_block(&patterned_block(geom, 0)).unwrap();
        }
        let _ = std::fs::remove_file(journal_path(&path));
        let (mut w, cp) = StoreWriter::open_for_append(&path, geom, 1e-9, 2).unwrap();
        assert_eq!(cp, Checkpoint::default());
        for b in 0..3 {
            w.append_block(&patterned_block(geom, b)).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 3);
        assert!(StoreReader::open(&path).unwrap().scrub().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_for_append_rejects_mismatched_parameters() {
        let geom = BlockGeometry::new(4, 4);
        let path = tmp("durable-mismatch");
        {
            let mut w = StoreWriter::create_durable(&path, geom, 1e-9, 1).unwrap();
            w.append_block(&patterned_block(geom, 0)).unwrap();
        }
        let other_geom = BlockGeometry::new(8, 2);
        assert!(matches!(
            StoreWriter::open_for_append(&path, other_geom, 1e-9, 1),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            StoreWriter::open_for_append(&path, geom, 1e-6, 1),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
    }

    #[test]
    fn open_for_append_rejects_a_checkpoint_inside_the_header() {
        let geom = BlockGeometry::new(4, 4);
        let path = tmp("durable-short-prefix");
        drop(StoreWriter::create_durable(&path, geom, 1e-9, 1).unwrap());
        let journal = File::create(journal_path(&path)).unwrap();
        let mut forged = Journaled::new(io::sink(), journal);
        forged.commit(Checkpoint { segments: 1, values: 16, bytes: 10 }).unwrap();
        assert!(matches!(
            StoreWriter::open_for_append(&path, geom, 1e-9, 1),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
    }

    #[test]
    fn write_read_roundtrip_random_access() {
        let path = tmp("roundtrip");
        let geom = BlockGeometry::new(6, 8);
        let eb = 1e-10;
        let blocks: Vec<Vec<f64>> = (0..12).map(|b| patterned_block(geom, b)).collect();
        {
            let mut w = StoreWriter::create_durable(&path, geom, eb, 64).unwrap();
            for b in &blocks {
                w.append_block(b).unwrap();
            }
            assert_eq!(w.finish().unwrap(), 12);
        }
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.num_blocks(), 12);
        assert_eq!(r.geometry(), geom);
        assert_eq!(r.error_bound(), eb);
        // Random access, out of order.
        for &i in &[7usize, 0, 11, 3, 7] {
            let got = r.read_block(i).unwrap();
            assert_eq!(got.len(), geom.block_size());
            for (a, b) in blocks[i].iter().zip(&got) {
                assert!((a - b).abs() <= eb);
            }
        }
        // Full stream.
        let all = r.read_all().unwrap();
        assert_eq!(all.len(), 12 * geom.block_size());
        assert!(r.scrub().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_store() {
        let path = tmp("empty");
        let geom = BlockGeometry::new(2, 2);
        StoreWriter::create_durable(&path, geom, 1e-8, 64)
            .unwrap()
            .finish()
            .unwrap();
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.num_blocks(), 0);
        assert!(matches!(
            r.read_block(0),
            Err(StoreError::OutOfRange { .. })
        ));
        assert!(r.scrub().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unfinished_store_rejected() {
        // Without finish(), the header still says 0 blocks / 0 index.
        let path = tmp("unfinished");
        let geom = BlockGeometry::new(2, 2);
        {
            let mut w = StoreWriter::create_durable(&path, geom, 1e-8, 64).unwrap();
            w.append_block(&[1e-5; 4]).unwrap();
            // dropped without finish()
        }
        let err = StoreReader::open(&path);
        assert!(err.is_err(), "index offset 0 must be rejected");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTASTORE_______________________________________").unwrap();
        assert!(matches!(
            StoreReader::open(&path),
            Err(StoreError::Corrupt {
                reason: "bad magic",
                ..
            })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_block_size_panics() {
        let path = tmp("wrongsize");
        let geom = BlockGeometry::new(2, 2);
        let mut w = StoreWriter::create_durable(&path, geom, 1e-8, 64).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.append_block(&[0.0; 3]);
        }));
        assert!(result.is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
    }

    #[test]
    fn header_flip_detected() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..3).map(|b| patterned_block(geom, b)).collect();
        let (mut bytes, _) = store_bytes(geom, 1e-9, &blocks);
        bytes[10] ^= 0x02; // inside the error-bound field
        let err = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap_err();
        assert!(
            matches!(err, StoreError::Checksum { block: None, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn payload_flip_repairs_on_read() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..6).map(|b| patterned_block(geom, b)).collect();
        let (clean_bytes, spans) = store_bytes(geom, 1e-9, &blocks);
        let mut bytes = clean_bytes.clone();
        let (off, len) = spans[4];
        bytes[(off + len / 2) as usize] ^= 0x01;

        let clean_r =
            StoreReader::from_source(&clean_bytes[..], RetryPolicy::none())
                .unwrap();
        let expected = clean_r.read_block(4).unwrap();

        let r =
            StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        // Undamaged blocks still read, and don't touch the repair stats.
        for i in [0usize, 1, 2, 3, 5] {
            r.read_block(i).unwrap();
        }
        assert_eq!(r.read_stats().blocks_repaired, 0);
        // The damaged one is rebuilt from its container's parity section
        // and served bit-exact — and the repair is accounted for.
        let got = r.read_block(4).unwrap();
        assert_eq!(got, expected, "repaired read must match the clean read");
        assert_eq!(r.read_stats().blocks_repaired, 1);
        assert_eq!(r.read_stats().blocks_dropped, 0);

        // scrub() still reports the on-disk damage (it certifies bytes,
        // not serveability), classifies it repairable with a rebuilt
        // container byte-identical to what the writer stored, and heals
        // the file's bytes back to the clean store.
        let report = r.scrub().unwrap();
        assert_eq!(report.blocks, 6);
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.repairable(), 1);
        assert_eq!(report.damaged[0].block, 4);
        assert_eq!(report.damaged[0].offset, off);
        assert_eq!(
            report.damaged[0].repaired.as_deref(),
            Some(&clean_bytes[off as usize..(off + len) as usize])
        );
        let mut healed = r.source.to_vec();
        report.heal(&mut healed).unwrap();
        assert_eq!(healed, clean_bytes);
        // A rebuilt container that would not fit the given bytes is
        // refused, not spliced.
        let err = report
            .heal(&mut healed[..(off + len / 2) as usize])
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { block: Some(4), .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn damage_beyond_parity_budget_pinned_to_block() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..6).map(|b| patterned_block(geom, b)).collect();
        let (mut bytes, spans) = store_bytes(geom, 1e-9, &blocks);
        let (off, len) = spans[4];
        // Shred the whole container — payload and both parity shards —
        // so the damage exceeds the per-group parity budget.
        for p in (off + 8..off + len).step_by(7) {
            bytes[p as usize] ^= 0x55;
        }
        let r =
            StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        for i in [0usize, 1, 2, 3, 5] {
            r.read_block(i).unwrap();
        }
        // Pinned by index and offset, and counted as dropped.
        match r.read_block(4).unwrap_err() {
            StoreError::Checksum { block, offset, .. } => {
                assert_eq!(block, Some(4));
                assert_eq!(offset, Some(off));
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
        assert_eq!(r.read_stats().blocks_dropped, 1);
        assert_eq!(r.read_stats().blocks_repaired, 0);
        // scrub() agrees: damaged, and beyond repair.
        let report = r.scrub().unwrap();
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].block, 4);
        assert!(report.damaged[0].repaired.is_none());
        assert_eq!(report.repairable(), 0);
    }

    #[test]
    fn index_flip_detected() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..3).map(|b| patterned_block(geom, b)).collect();
        let (mut bytes, _) = store_bytes(geom, 1e-9, &blocks);
        // The index sits between the last block and the trailing 4-byte
        // index CRC; flip a bit in its first entry.
        let index_offset =
            u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
        bytes[index_offset + 2] ^= 0x20;
        let err = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap_err();
        assert!(
            matches!(err, StoreError::Checksum { block: None, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn transient_errors_are_retried() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..8).map(|b| patterned_block(geom, b)).collect();
        let (bytes, _) = store_bytes(geom, 1e-9, &blocks);
        let flaky = FaultyReader::new(
            &bytes[..],
            1234,
            FaultConfig {
                transient_rate: 0.4,
                max_transient_errors: 50,
                transient_kind: ErrorKind::WouldBlock,
                short_reads: true,
                ..Default::default()
            },
        );
        let retry = RetryPolicy {
            max_retries: 4, // keep the test instant: zero backoff from none()
            ..RetryPolicy::none()
        };
        let r = StoreReader::from_source(flaky, retry).unwrap();
        assert_eq!(r.num_blocks(), 8);
        let all = r.read_all().unwrap();
        assert_eq!(all.len(), 8 * geom.block_size());
        assert!(r.scrub().unwrap().is_clean());
        assert!(
            r.source.transient_errors_injected() > 0,
            "the fault injector must actually have fired"
        );
        assert!(
            r.read_stats().transient_retries > 0,
            "absorbed retries must be visible in the read stats"
        );
        assert_eq!(r.read_stats().blocks_repaired, 0);
        assert_eq!(r.read_stats().blocks_dropped, 0);
    }

    #[test]
    fn transient_errors_surface_without_retry() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..8).map(|b| patterned_block(geom, b)).collect();
        let (bytes, _) = store_bytes(geom, 1e-9, &blocks);
        let flaky = FaultyReader::new(
            &bytes[..],
            1234,
            FaultConfig {
                transient_rate: 0.9,
                max_transient_errors: 1000,
                transient_kind: ErrorKind::WouldBlock,
                ..Default::default()
            },
        );
        let result = StoreReader::from_source(flaky, RetryPolicy::none())
            .and_then(|r| r.read_all());
        assert!(
            matches!(result, Err(StoreError::Io(ref e)) if e.kind() == ErrorKind::WouldBlock),
            "without retries the transient error must surface: {result:?}"
        );
    }

    #[test]
    fn hostile_block_count_rejected_before_allocation() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..2).map(|b| patterned_block(geom, b)).collect();
        let (mut bytes, _) = store_bytes(geom, 1e-9, &blocks);
        // Claim ~10^15 blocks; the index could never fit in the file, so
        // open() must fail on the bounds check (the header CRC also
        // breaks, but either way: no giant allocation).
        bytes[32..40].copy_from_slice(&(1u64 << 50).to_le_bytes());
        let err = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap_err();
        assert!(
            matches!(err, StoreError::Checksum { .. } | StoreError::Corrupt { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn one_reader_shared_by_four_threads_matches_a_sequential_reader() {
        let geom = BlockGeometry::new(4, 16);
        let blocks: Vec<Vec<f64>> = (0..16).map(|b| patterned_block(geom, b)).collect();
        let (mut bytes, spans) = store_bytes(geom, 1e-9, &blocks);
        // Seeded silent corruption: one bit in the middle of each of two
        // blocks, inside the parity budget.
        let damaged = [3usize, 9];
        for (k, &b) in damaged.iter().enumerate() {
            let at = spans[b].0 + spans[b].1 / 2;
            faults::BitFlipper::new(at, at + 4, 1, 0x5eed + k as u64).apply(&mut bytes);
        }

        let sequential = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        let want: Vec<Vec<f64>> = (0..16).map(|i| sequential.read_block(i).unwrap()).collect();

        let shared = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        let got: Vec<(usize, Vec<f64>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let shared = &shared;
                    scope.spawn(move || {
                        (t..16)
                            .step_by(4)
                            .map(|i| {
                                let (values, repaired) = shared.read_block_noting_repair(i).unwrap();
                                (i, values, repaired)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got.len(), 16);
        for (i, values, repaired) in &got {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(values), bits(&want[*i]), "block {i}");
            assert_eq!(*repaired, damaged.contains(i), "block {i} repair flag");
        }
        assert_eq!(shared.read_stats().blocks_repaired, damaged.len() as u64);
        assert_eq!(shared.read_stats().blocks_dropped, 0);
    }
}
