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
//! bytes as written, so [`StoreReader::verify`] can certify the whole
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
//! failing an SCF iteration. The reader is generic over `Read + Seek`,
//! so tests inject faults without touching the filesystem.

use std::fs::{File, OpenOptions};
use std::io::{self, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use checksum::crc32;
use durable::retry::RetryStats;
use durable::{journal_path, remove_journal, scan_journal, Checkpoint, JournalWriter};
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
    pub const fn corrupt(reason: &'static str) -> Self {
        StoreError::Corrupt {
            block: None,
            offset: None,
            reason,
        }
    }

    /// Attributes a corruption/checksum error to block `b`.
    #[must_use]
    pub fn with_block(self, b: usize) -> Self {
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

/// Reads the CRC32 stored right after `body` and checks it against
/// `body`; `offset` locates a mismatch in the error.
fn read_stored_crc<R: Read>(
    r: &mut R,
    policy: &RetryPolicy,
    stats: &mut ReadStats,
    body: &[u8],
    offset: u64,
) -> Result<(), StoreError> {
    let mut crc_buf = [0u8; 4];
    read_exact_retry(r, &mut crc_buf, policy, stats)?;
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

/// Fills `buf` completely via the shared [`durable::retry`] loop, then
/// folds the call's retry cost into this reader's [`ReadStats`] and the
/// `store.transient_retries` / `store.backoff_us` telemetry counters —
/// the per-store attribution the shared loop deliberately leaves to its
/// callers. Accounted even when the read ultimately fails.
fn read_exact_retry<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    policy: &RetryPolicy,
    stats: &mut ReadStats,
) -> io::Result<()> {
    let mut rs = RetryStats::default();
    let result = durable::retry::read_exact_retry(r, buf, policy, &mut rs);
    if rs.transient_retries > 0 {
        stats.transient_retries += rs.transient_retries;
        telemetry::counter_add("store.transient_retries", rs.transient_retries);
    }
    if rs.backoff_micros > 0 {
        stats.backoff_micros += rs.backoff_micros;
        telemetry::counter_add("store.backoff_us", rs.backoff_micros);
    }
    result
}

/// Durable-mode state of a [`StoreWriter`]: the checkpoint journal and
/// its batching policy.
struct Durability {
    journal: JournalWriter<File>,
    path: PathBuf,
    checkpoint_every: usize,
    /// Blocks appended since the last checkpoint.
    uncheckpointed: usize,
}

/// Writes a block store: append blocks, then [`finish`](StoreWriter::finish).
///
/// Two modes: [`create`](Self::create) is the plain volatile writer (a
/// crash loses the whole store, since the header is only finalized on
/// finish); [`create_durable`](Self::create_durable) additionally
/// maintains a `<path>.journal` checkpoint sidecar — every
/// `checkpoint_every` blocks the data is fsync'd and a journal record
/// commits the prefix, so after a crash
/// [`open_for_append`](Self::open_for_append) can truncate back to the
/// last checkpoint, rebuild the index by re-walking the committed
/// containers, and continue. Both modes emit byte-identical files.
pub struct StoreWriter {
    file: File,
    compressor: Compressor,
    index: Vec<(u64, u64, u32)>,
    cursor: u64,
    durability: Option<Durability>,
}

impl StoreWriter {
    /// Creates a store at `path` for blocks of `geometry` at error bound
    /// `eb` (truncates any existing file).
    pub fn create(path: &Path, geometry: BlockGeometry, eb: f64) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(path)?;
        // Placeholder header; rewritten with final values (and CRC) on
        // finish().
        file.write_all(&header_bytes(eb, geometry, 0, 0))?;
        file.write_all(&0u32.to_le_bytes())?;
        Ok(Self {
            file,
            compressor: Compressor::new(geometry, eb),
            index: Vec::new(),
            cursor: HEADER_LEN_V2,
            durability: None,
        })
    }

    /// Like [`create`](Self::create), but journaled: every
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
        if checkpoint_every == 0 {
            return Err(StoreError::Io(io::Error::new(
                ErrorKind::InvalidInput,
                "checkpoint_every must be at least 1",
            )));
        }
        let mut w = Self::create(path, geometry, eb)?;
        // The placeholder header must be durable before the journal can
        // describe byte offsets past it.
        w.file.sync_all()?;
        let jfile = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(journal_path(path))?;
        durable::fsync_dir(&durable::parent_of(path))?;
        w.durability = Some(Durability {
            journal: JournalWriter::new(jfile),
            path: path.to_path_buf(),
            checkpoint_every,
            uncheckpointed: 0,
        });
        Ok(w)
    }

    /// Resumes an interrupted durable write at `path`: loads the last
    /// valid checkpoint from `<path>.journal`, truncates the store to
    /// the committed prefix, and rebuilds the index by re-walking the
    /// committed containers. Returns the writer plus the checkpoint —
    /// `checkpoint.segments` blocks are already in the store, so the
    /// producer resumes appending from block `checkpoint.segments`.
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
        if checkpoint_every == 0 {
            return Err(StoreError::Io(io::Error::new(
                ErrorKind::InvalidInput,
                "checkpoint_every must be at least 1",
            )));
        }
        let jp = journal_path(path);
        let journal_bytes = match std::fs::read(&jp) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (cp, valid_len) = scan_journal(&journal_bytes);
        let Some(cp) = cp else {
            // No committed prefix at all: restart from scratch.
            let w = Self::create_durable(path, geometry, eb, checkpoint_every)?;
            return Ok((w, Checkpoint::default()));
        };

        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() < cp.bytes {
            return Err(StoreError::corrupt(
                "journal claims more durable bytes than the store holds",
            ));
        }
        // Lenient header check: count/index/CRC slots hold placeholders
        // until finish(), but magic, error bound, and geometry must
        // already match what the resume asks for.
        let mut header = [0u8; HEADER_BODY_LEN as usize];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
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
        // Drop everything past the committed prefix (possibly torn).
        file.set_len(cp.bytes)?;
        file.sync_all()?;

        // Rebuild the index: the committed prefix is exactly
        // `cp.segments` whole containers back to back.
        file.seek(SeekFrom::Start(HEADER_LEN_V2))?;
        let mut blocks_bytes = vec![0u8; (cp.bytes - HEADER_LEN_V2) as usize];
        file.read_exact(&mut blocks_bytes)?;
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

        // Journal: drop any torn tail record, then append to it.
        let mut jfile = OpenOptions::new().read(true).write(true).open(&jp)?;
        jfile.set_len(valid_len as u64)?;
        jfile.sync_all()?;
        jfile.seek(SeekFrom::Start(valid_len as u64))?;
        file.seek(SeekFrom::Start(cp.bytes))?;
        Ok((
            Self {
                file,
                compressor: Compressor::new(geometry, eb),
                index,
                cursor: cp.bytes,
                durability: Some(Durability {
                    journal: JournalWriter::resume(jfile),
                    path: path.to_path_buf(),
                    checkpoint_every,
                    uncheckpointed: 0,
                }),
            },
            cp,
        ))
    }

    /// In durable mode: commits a checkpoint if enough blocks have
    /// accumulated. Data fsync strictly precedes the journal record, so
    /// the journal never describes bytes that could still be lost.
    fn maybe_checkpoint(&mut self) -> Result<(), StoreError> {
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        if d.uncheckpointed < d.checkpoint_every {
            return Ok(());
        }
        self.file.sync_all()?;
        let bs = self.compressor.geometry().block_size() as u64;
        d.journal.record(Checkpoint {
            segments: self.index.len() as u64,
            values: self.index.len() as u64 * bs,
            bytes: self.cursor,
        })?;
        d.uncheckpointed = 0;
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
        self.file.write_all(&payload)?;
        self.index
            .push((self.cursor, payload.len() as u64, crc32(&payload)));
        self.cursor += payload.len() as u64;
        if let Some(d) = &mut self.durability {
            d.uncheckpointed += 1;
        }
        self.maybe_checkpoint()
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
            self.file.write_all(&payload)?;
            self.index
                .push((self.cursor, payload.len() as u64, crc32(&payload)));
            self.cursor += payload.len() as u64;
            if let Some(d) = &mut self.durability {
                d.uncheckpointed += 1;
            }
            self.maybe_checkpoint()?;
        }
        Ok(())
    }

    /// Writes the checksummed index and the final header. Returns the
    /// block count.
    pub fn finish(mut self) -> Result<usize, StoreError> {
        let index_offset = self.cursor;
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_V2 as usize);
        for &(off, len, crc) in &self.index {
            index_bytes.extend_from_slice(&off.to_le_bytes());
            index_bytes.extend_from_slice(&len.to_le_bytes());
            index_bytes.extend_from_slice(&crc.to_le_bytes());
        }
        self.file.write_all(&index_bytes)?;
        self.file.write_all(&crc32(&index_bytes).to_le_bytes())?;

        let header = header_bytes(
            self.compressor.error_bound(),
            self.compressor.geometry(),
            self.index.len() as u64,
            index_offset,
        );
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.write_all(&crc32(&header).to_le_bytes())?;
        self.file.flush()?;
        if let Some(d) = self.durability.take() {
            // The finished store must be durable before the journal — the
            // "write in progress" marker — disappears.
            self.file.sync_all()?;
            drop(d.journal);
            remove_journal(&d.path)?;
        }
        Ok(self.index.len())
    }
}

/// Splits `num_blocks` into at most `shards` contiguous, near-even,
/// non-empty ranges covering `0..num_blocks` — the shard layout the
/// cache server routes shell-quartet block indices through. The first
/// `num_blocks % shards` ranges are one block longer, so any two ranges
/// differ in length by at most one.
#[must_use]
pub fn shard_ranges(num_blocks: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if num_blocks == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, num_blocks);
    let base = num_blocks / shards;
    let extra = num_blocks % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
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

/// One damaged block found by [`StoreReader::verify`].
#[derive(Debug)]
pub struct BlockDamage {
    /// Zero-based block index.
    pub block: usize,
    /// Absolute file offset of the block's container.
    pub offset: u64,
    /// What was wrong with it.
    pub error: StoreError,
}

/// Result of a full-store scan.
#[derive(Debug)]
pub struct VerifyReport {
    /// Blocks scanned (the store's block count).
    pub blocks: usize,
    /// Every block that failed verification.
    pub damaged: Vec<BlockDamage>,
}

impl VerifyReport {
    /// Did every block verify?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }
}

/// Read side: random access to stored blocks. Generic over the byte
/// source so tests can inject I/O faults; production code uses
/// [`StoreReader::open`], which reads from a [`File`].
#[derive(Debug)]
pub struct StoreReader<R: Read + Seek = File> {
    source: R,
    retry: RetryPolicy,
    geometry: BlockGeometry,
    error_bound: f64,
    index: Vec<IndexEntry>,
    stats: ReadStats,
}

impl StoreReader<File> {
    /// Opens a store and loads its index.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::from_source(File::open(path)?, RetryPolicy::default())
    }

    /// Opens a store with an explicit transient-retry policy. Each call
    /// owns an independent file handle, so a sharded server can open one
    /// reader per shard of the same store and read them concurrently.
    pub fn open_with_retry(path: &Path, retry: RetryPolicy) -> Result<Self, StoreError> {
        Self::from_source(File::open(path)?, retry)
    }
}

impl<R: Read + Seek> StoreReader<R> {
    /// Opens a store from any seekable byte source, retrying transient
    /// read errors per `retry`. Validates the header and index checksums
    /// and loads the index.
    pub fn from_source(mut source: R, retry: RetryPolicy) -> Result<Self, StoreError> {
        let mut stats = ReadStats::default();
        let file_len = source.seek(SeekFrom::End(0))?;
        source.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_BODY_LEN as usize];
        read_exact_retry(&mut source, &mut header, &retry, &mut stats)?;
        if header[..8] != MAGIC_V2 {
            return Err(StoreError::corrupt("bad magic"));
        }
        read_stored_crc(&mut source, &retry, &mut stats, &header, HEADER_BODY_LEN)?;

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
        source.seek(SeekFrom::Start(index_offset))?;
        let mut index_bytes = vec![0u8; index_bytes_len as usize];
        read_exact_retry(&mut source, &mut index_bytes, &retry, &mut stats)?;
        read_stored_crc(&mut source, &retry, &mut stats, &index_bytes, index_offset)?;
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
    /// blocks repaired from parity, blocks lost.
    #[must_use]
    pub fn read_stats(&self) -> ReadStats {
        self.stats
    }

    /// Reads block `i`'s raw container bytes, unverified.
    fn read_block_raw(&mut self, i: usize) -> Result<(IndexEntry, Vec<u8>), StoreError> {
        let entry = *self.index.get(i).ok_or(StoreError::OutOfRange {
            index: i,
            blocks: self.index.len(),
        })?;
        self.source.seek(SeekFrom::Start(entry.offset))?;
        let mut payload = vec![0u8; entry.len as usize];
        read_exact_retry(&mut self.source, &mut payload, &self.retry, &mut self.stats)?;
        Ok((entry, payload))
    }

    /// Reads block `i`'s raw container bytes and verifies its stored
    /// CRC32.
    fn read_block_bytes(&mut self, i: usize) -> Result<Vec<u8>, StoreError> {
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
    fn try_repair_block(&mut self, i: usize) -> Option<Vec<u8>> {
        let (entry, payload) = self.read_block_raw(i).ok()?;
        let (repaired, report) = pastri::repair_container(&payload).ok()?;
        if report.is_fully_repaired() && crc32(&repaired) == entry.crc {
            Some(repaired)
        } else {
            None
        }
    }

    /// Reads and decompresses block `i` (random access: one seek + one
    /// read of the compressed payload). A block whose checksum fails is
    /// transparently rebuilt from its container's parity section when
    /// possible (counted in [`ReadStats::blocks_repaired`]); damage
    /// beyond the parity budget is reported with the block index and
    /// file offset attached (and counted in
    /// [`ReadStats::blocks_dropped`]).
    pub fn read_block(&mut self, i: usize) -> Result<Vec<f64>, StoreError> {
        let payload = match self.read_block_bytes(i) {
            Ok(p) => p,
            Err(e @ StoreError::Checksum { .. }) => match self.try_repair_block(i) {
                Some(repaired) => {
                    self.stats.blocks_repaired += 1;
                    telemetry::counter_add("store.blocks_repaired", 1);
                    repaired
                }
                None => {
                    self.stats.blocks_dropped += 1;
                    telemetry::counter_add("store.blocks_dropped", 1);
                    return Err(e);
                }
            },
            Err(e) => return Err(e),
        };
        match pastri::decompress(&payload) {
            Ok(values) => Ok(values),
            Err(e) => {
                self.stats.blocks_dropped += 1;
                telemetry::counter_add("store.blocks_dropped", 1);
                Err(e.into())
            }
        }
    }

    /// Reads the whole store back as one stream (iteration order).
    pub fn read_all(&mut self) -> Result<Vec<f64>, StoreError> {
        let mut out = Vec::with_capacity(self.num_blocks() * self.geometry.block_size());
        for i in 0..self.num_blocks() {
            out.extend(self.read_block(i)?);
        }
        Ok(out)
    }

    /// Scans every block and reports all damage, instead of stopping at
    /// the first bad block like [`read_all`](Self::read_all).
    ///
    /// Blocks are certified by their stored CRC32 — bit-exact payload
    /// bytes are exactly what the writer produced, so decodability
    /// follows without paying for decompression.
    pub fn verify(&mut self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport {
            blocks: self.num_blocks(),
            damaged: Vec::new(),
        };
        for i in 0..self.num_blocks() {
            let offset = self.index[i].offset;
            match self.read_block_bytes(i) {
                Ok(_) => {}
                Err(e @ StoreError::Io(_)) => return Err(e), // the medium, not the data
                Err(error) => report.damaged.push(BlockDamage {
                    block: i,
                    offset,
                    error,
                }),
            }
        }
        Ok(report)
    }

    /// Scrub pass: scans every block like [`verify`](Self::verify), then
    /// tries to rebuild each damaged one from its container's parity
    /// section. Returns the classification plus, for every successful
    /// rebuild, the `(absolute file offset, repaired container bytes)`
    /// patch — byte-identical to what the writer stored (certified by
    /// the index CRC), so a caller can splice the patches into a copy of
    /// the store file and atomically swap it in.
    pub fn scrub(&mut self) -> Result<(ScrubOutcome, Vec<ScrubPatch>), StoreError> {
        let report = self.verify()?;
        let mut outcome = ScrubOutcome {
            blocks: report.blocks,
            repaired: Vec::new(),
            unrepairable: Vec::new(),
        };
        let mut patches = Vec::new();
        for damage in report.damaged {
            let i = damage.block;
            match self.try_repair_block(i) {
                Some(repaired) => {
                    outcome.repaired.push(i);
                    patches.push((self.index[i].offset, repaired));
                }
                None => outcome.unrepairable.push(i),
            }
        }
        Ok((outcome, patches))
    }
}

/// One successful rebuild from a scrub pass: the damaged container's
/// absolute file offset and its byte-identical replacement.
pub type ScrubPatch = (u64, Vec<u8>);

/// Classification from a [`StoreReader::scrub`] pass.
#[derive(Debug)]
pub struct ScrubOutcome {
    /// Blocks scanned.
    pub blocks: usize,
    /// Damaged blocks whose containers rebuilt byte-identical.
    pub repaired: Vec<usize>,
    /// Damaged blocks beyond their parity budget (quarantine these).
    pub unrepairable: Vec<usize>,
}

impl ScrubOutcome {
    /// No damage at all?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.repaired.is_empty() && self.unrepairable.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultConfig, FaultyReader};
    use std::io::Cursor;

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

    #[test]
    fn shard_ranges_cover_contiguously_and_near_evenly() {
        for (nb, shards) in [(0, 4), (1, 4), (7, 3), (12, 4), (5, 8), (100, 7), (9, 1)] {
            let ranges = shard_ranges(nb, shards);
            if nb == 0 {
                assert!(ranges.is_empty());
                continue;
            }
            assert_eq!(ranges.len(), shards.min(nb), "nb={nb} shards={shards}");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous: nb={nb} shards={shards}");
                assert!(!r.is_empty(), "no empty shard: nb={nb} shards={shards}");
                next = r.end;
            }
            assert_eq!(next, nb, "full cover: nb={nb} shards={shards}");
            let lens: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "near-even: {lens:?}");
        }
    }

    /// A finished store as raw bytes, plus each block's (offset, len).
    fn store_bytes(geom: BlockGeometry, eb: f64, blocks: &[Vec<f64>]) -> (Vec<u8>, Vec<(u64, u64)>) {
        let path = tmp(&format!("mk-{:p}", blocks.as_ptr()));
        let mut w = StoreWriter::create(&path, geom, eb).unwrap();
        for b in blocks {
            w.append_block(b).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let r = StoreReader::from_source(Cursor::new(bytes.clone()), RetryPolicy::none()).unwrap();
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
            let mut w = StoreWriter::create(&path, geom, 1e-10).unwrap();
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
        let mut r = StoreReader::open(&path).unwrap();
        assert!(r.verify().unwrap().is_clean());
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
        assert!(StoreReader::open(&path).unwrap().verify().unwrap().is_clean());
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
    fn write_read_roundtrip_random_access() {
        let path = tmp("roundtrip");
        let geom = BlockGeometry::new(6, 8);
        let eb = 1e-10;
        let blocks: Vec<Vec<f64>> = (0..12).map(|b| patterned_block(geom, b)).collect();
        {
            let mut w = StoreWriter::create(&path, geom, eb).unwrap();
            for b in &blocks {
                w.append_block(b).unwrap();
            }
            assert_eq!(w.finish().unwrap(), 12);
        }
        let mut r = StoreReader::open(&path).unwrap();
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
        assert!(r.verify().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_store() {
        let path = tmp("empty");
        let geom = BlockGeometry::new(2, 2);
        StoreWriter::create(&path, geom, 1e-8)
            .unwrap()
            .finish()
            .unwrap();
        let mut r = StoreReader::open(&path).unwrap();
        assert_eq!(r.num_blocks(), 0);
        assert!(matches!(
            r.read_block(0),
            Err(StoreError::OutOfRange { .. })
        ));
        assert!(r.verify().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unfinished_store_rejected() {
        // Without finish(), the header still says 0 blocks / 0 index.
        let path = tmp("unfinished");
        let geom = BlockGeometry::new(2, 2);
        {
            let mut w = StoreWriter::create(&path, geom, 1e-8).unwrap();
            w.append_block(&[1e-5; 4]).unwrap();
            // dropped without finish()
        }
        let err = StoreReader::open(&path);
        assert!(err.is_err(), "index offset 0 must be rejected");
        let _ = std::fs::remove_file(&path);
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
        let mut w = StoreWriter::create(&path, geom, 1e-8).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.append_block(&[0.0; 3]);
        }));
        assert!(result.is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_flip_detected() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..3).map(|b| patterned_block(geom, b)).collect();
        let (mut bytes, _) = store_bytes(geom, 1e-9, &blocks);
        bytes[10] ^= 0x02; // inside the error-bound field
        let err = StoreReader::from_source(Cursor::new(bytes), RetryPolicy::none()).unwrap_err();
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

        let mut clean_r =
            StoreReader::from_source(Cursor::new(clean_bytes.clone()), RetryPolicy::none())
                .unwrap();
        let expected = clean_r.read_block(4).unwrap();

        let mut r =
            StoreReader::from_source(Cursor::new(bytes), RetryPolicy::none()).unwrap();
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

        // verify() still reports the on-disk damage (it certifies bytes,
        // not serveability)...
        let report = r.verify().unwrap();
        assert_eq!(report.blocks, 6);
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].block, 4);
        assert_eq!(report.damaged[0].offset, off);
        // ...and scrub() classifies it repairable, with a patch that is
        // byte-identical to what the writer originally stored.
        let (outcome, patches) = r.scrub().unwrap();
        assert_eq!(outcome.repaired, vec![4]);
        assert!(outcome.unrepairable.is_empty());
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].0, off);
        assert_eq!(
            patches[0].1,
            clean_bytes[off as usize..(off + len) as usize].to_vec()
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
        let mut r =
            StoreReader::from_source(Cursor::new(bytes), RetryPolicy::none()).unwrap();
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
        let (outcome, patches) = r.scrub().unwrap();
        assert_eq!(outcome.unrepairable, vec![4]);
        assert!(outcome.repaired.is_empty());
        assert!(patches.is_empty());
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
        let err = StoreReader::from_source(Cursor::new(bytes), RetryPolicy::none()).unwrap_err();
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
            Cursor::new(bytes),
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
        let mut r = StoreReader::from_source(flaky, retry).unwrap();
        assert_eq!(r.num_blocks(), 8);
        let all = r.read_all().unwrap();
        assert_eq!(all.len(), 8 * geom.block_size());
        assert!(r.verify().unwrap().is_clean());
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
            Cursor::new(bytes),
            1234,
            FaultConfig {
                transient_rate: 0.9,
                max_transient_errors: 1000,
                transient_kind: ErrorKind::WouldBlock,
                ..Default::default()
            },
        );
        let result = StoreReader::from_source(flaky, RetryPolicy::none())
            .and_then(|mut r| r.read_all());
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
        let err = StoreReader::from_source(Cursor::new(bytes), RetryPolicy::none()).unwrap_err();
        assert!(
            matches!(err, StoreError::Checksum { .. } | StoreError::Corrupt { .. }),
            "got {err:?}"
        );
    }
}
