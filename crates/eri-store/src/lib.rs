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
//! File layout (version 5, current):
//!
//! ```text
//! magic            8 bytes  "ERISTOR5"
//! error bound      8 bytes  f64 LE
//! num_subblocks    8 bytes  u64 LE
//! subblock_size    8 bytes  u64 LE
//! stripe width     4 bytes  u32 LE  (G: most blocks per stripe)
//! parity shards    4 bytes  u32 LE  (P: Reed–Solomon shards per stripe)
//! header_crc32     4 bytes  u32 LE  (CRC32 of the 40 bytes above)
//! stripes          runs of at most G consecutive blocks, each block a
//!                  PaSTRI frame (below), each run followed by its
//!                  parity record; a 36-byte `durable` commit record
//!                  ("PSTC") after each committed batch
//! index            num_blocks × frame length u32 LE,
//!                  then num_stripes × (record offset u64 LE,
//!                                      members u32 LE)
//! index_crc32      4 bytes  u32 LE  (CRC32 of the index bytes above)
//! trailer          index offset u64 LE, num_blocks u64 LE,
//!                  num_stripes u64 LE, trailer_crc32 u32 LE (CRC32 of
//!                  those 24 bytes)
//! ```
//!
//! A block is the frame a v2 PaSTRI container holds for it
//! ([`Compressor::compress_block`]: payload length varint, payload CRC32,
//! Tree 5 payload), with no header: the one above holds for every block.
//! A stripe's frames lie back to back and end where its parity record
//! starts, so the index keeps only each frame's length: a block's offset
//! is its stripe's record offset minus the lengths of the members from
//! it on.
//!
//! A parity record:
//!
//! ```text
//! magic            4 bytes  "PSTP"
//! members          4 bytes  u32 LE  (blocks in the stripe, 1..=G)
//! piece_len        8 bytes  u64 LE
//! piece CRCs       (G + P) × u32 LE (the G data pieces, then the P
//!                                    parity shards)
//! shards           P × piece_len bytes
//! record_crc32     4 bytes  u32 LE  (CRC32 of the record bytes above)
//! ```
//!
//! A stripe's member frames are one contiguous byte run of length
//! L, cut into G pieces of `piece_len = ⌈L / G⌉` bytes (the last ones
//! short or empty, read as zero-padded). P Reed–Solomon shards protect
//! the pieces, so parity costs `P / G` of the data, not P copies of each
//! block. Any P damaged pieces or shards rebuild byte-exact: the piece
//! CRCs say which ones to erase, so one flipped byte costs one piece,
//! however many pieces its block spans. A stripe closes after G blocks,
//! at every commit and at `finish`, so a commit never lands inside a
//! stripe and resuming never reopens one.
//!
//! A frame certifies itself: [`pastri::check_frame`] verifies its
//! payload CRC32 and that its length varint spans exactly the bytes the
//! index gives it. That one check lets [`StoreReader::scrub`] certify
//! the whole store — and [`StoreReader::read_block`] pin damage to one
//! block — without decompressing anything.
//!
//! The file is append-only: a writer streams blocks without knowing
//! their sizes in advance, commits them in batches in-band, and
//! `finish` appends the index and the trailer. Nothing is ever patched
//! in place, so a reader finds a finished store by its trailer and an
//! unfinished one has none.
//!
//! Reads run through a [`RetryPolicy`]: transient `Interrupted` /
//! `WouldBlock` / `TimedOut` errors — routine on congested parallel file
//! systems — are retried with bounded exponential backoff instead of
//! failing an SCF iteration. The reader is generic over
//! [`durable::ReadAt`] — positional reads through `&self` — so one
//! [`StoreReader`] serves any number of threads at once, and tests
//! inject faults without touching the filesystem.

use std::fs::File;
use std::io::{self, ErrorKind, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use checksum::crc32;
use durable::retry::RetryStats;
use durable::{read_exact_at, Checkpoint, CommitScan, Journaled, ReadAt, SyncWrite};
use durable::{COMMIT_MAGIC, RECORD_LEN};
use parity::ReedSolomon;
use pastri::{BlockGeometry, Compressor};
use rayon::prelude::*;

/// Re-exported from [`durable::retry`]: the shared transient-I/O backoff
/// policy (this crate's read path and the soak workload generator share
/// one definition).
pub use durable::retry::RetryPolicy;

const MAGIC: [u8; 8] = *b"ERISTOR5";
/// Header bytes covered by the header CRC (everything before it).
const HEADER_BODY_LEN: u64 = 8 + 8 + 8 + 8 + 4 + 4;
/// Total header length (body + header CRC32): block 0 starts here.
/// Public so tooling and fault injectors can locate block spans without
/// re-deriving the layout.
pub const HEADER_LEN: u64 = HEADER_BODY_LEN + 4;
/// Size of one block index entry: the frame length, u32.
const BLOCK_ENTRY_LEN: u64 = 4;
/// Size of one stripe index entry: record offset u64 + members u32.
const STRIPE_ENTRY_LEN: u64 = 12;
/// Size of the trailer ending every finished store: index offset u64 +
/// block count u64 + stripe count u64 + CRC32.
pub const TRAILER_LEN: u64 = 28;
/// First bytes of every parity record, distinct from a commit record's
/// `PSTC`. A frame may start with the same bytes, so the recovery walk
/// tries a frame, which must verify, before either record.
const PARITY_MAGIC: [u8; 4] = *b"PSTP";
/// Parity record bytes before the piece CRCs: magic, members, piece_len.
const RECORD_HEAD: usize = 16;
/// Blocks per stripe (G) every writer uses; the header records it.
const STRIPE_WIDTH: usize = 8;
/// Reed–Solomon shards per stripe (P) every writer uses; the header
/// records it.
const STRIPE_SHARDS: usize = 2;

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
    /// Blocks whose frame failed its check but that were rebuilt from
    /// their stripe's parity (and re-certified with
    /// [`pastri::check_frame`]) before being served.
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

/// The stripe geometry a store header records: at most `width` blocks
/// (G) per stripe, protected by `shards` (P) Reed–Solomon shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Striping {
    width: usize,
    shards: usize,
}

impl Striping {
    /// What every writer uses: 2 shards per stripe of 8 blocks.
    fn standard() -> Self {
        Self {
            width: STRIPE_WIDTH,
            shards: STRIPE_SHARDS,
        }
    }

    /// The striping a header's two fields describe, if it is encodable.
    fn parse(width: u32, shards: u32) -> Option<Self> {
        let (width, shards) = (width as usize, shards as usize);
        (width >= 1 && shards >= 1 && width + shards <= 255).then_some(Self { width, shards })
    }

    fn piece_len(self, run: u64) -> u64 {
        run.div_ceil(self.width as u64)
    }

    /// Bytes of the parity record for pieces of `piece_len` bytes
    /// (saturating, so a hostile length compares as too large).
    fn record_len(self, piece_len: u64) -> u64 {
        let fixed = (RECORD_HEAD + 4 * (self.width + self.shards) + 4) as u64;
        fixed.saturating_add(piece_len.saturating_mul(self.shards as u64))
    }

    /// The G data pieces of `run`, each at most `piece_len` bytes.
    fn pieces(self, run: &[u8], piece_len: usize) -> Vec<&[u8]> {
        (0..self.width)
            .map(|k| &run[(k * piece_len).min(run.len())..((k + 1) * piece_len).min(run.len())])
            .collect()
    }

    fn code(self) -> ReedSolomon {
        ReedSolomon::new(self.width, self.shards).expect("striping is validated")
    }

    /// The parity record of a stripe of `members` blocks whose frames
    /// are `run`.
    fn record(self, run: &[u8], members: usize) -> Vec<u8> {
        let piece_len = self.piece_len(run.len() as u64);
        let pieces = self.pieces(run, piece_len as usize);
        let shards = self
            .code()
            .encode_padded(&pieces, piece_len as usize)
            .expect("pieces fit their length");
        let mut rec = Vec::with_capacity(self.record_len(piece_len) as usize);
        rec.extend_from_slice(&PARITY_MAGIC);
        rec.extend_from_slice(&(members as u32).to_le_bytes());
        rec.extend_from_slice(&piece_len.to_le_bytes());
        for piece in pieces.iter().copied().chain(shards.iter().map(Vec::as_slice)) {
            rec.extend_from_slice(&crc32(piece).to_le_bytes());
        }
        for shard in &shards {
            rec.extend_from_slice(shard);
        }
        checksum::append_crc32_of(&mut rec);
        rec
    }

    /// Is `record` exactly the record the writer put after `run`, as far
    /// as its own fields and CRC can tell?
    fn record_intact(self, run: &[u8], members: usize, record: &[u8]) -> bool {
        let piece_len = self.piece_len(run.len() as u64);
        let Some((body, crc)) = record.split_last_chunk::<4>() else {
            return false;
        };
        record.len() as u64 == self.record_len(piece_len)
            && body[..4] == PARITY_MAGIC
            && body[4..8] == (members as u32).to_le_bytes()
            && body[8..16] == piece_len.to_le_bytes()
            && crc32(body) == u32::from_le_bytes(*crc)
    }

    /// `run` rebuilt from its pieces and `record`'s shards, erasing every
    /// piece or shard whose CRC fails (even if the record's own CRC
    /// fails: a wrong CRC in its list only erases one more piece).
    /// `None` when more than P are erased. `record` must be
    /// `record_len` bytes for `run`.
    fn rebuild(self, run: &[u8], record: &[u8]) -> Option<Vec<u8>> {
        let piece_len = self.piece_len(run.len() as u64) as usize;
        let crc_of = |k: usize| u32_at(record, RECORD_HEAD + 4 * k);
        let shards_at = RECORD_HEAD + 4 * (self.width + self.shards);
        let data = self.pieces(run, piece_len).into_iter();
        let parity = (0..self.shards).map(|j| &record[shards_at + j * piece_len..][..piece_len]);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .chain(parity)
            .enumerate()
            .map(|(k, piece)| {
                (crc32(piece) == crc_of(k)).then(|| {
                    let mut padded = piece.to_vec();
                    padded.resize(piece_len, 0);
                    padded
                })
            })
            .collect();
        self.code().reconstruct(&mut shards).ok()?;
        let mut out = Vec::with_capacity(self.width * piece_len);
        for piece in shards.into_iter().take(self.width) {
            out.extend_from_slice(&piece?);
        }
        out.truncate(run.len());
        Some(out)
    }
}

/// One block's index entry: where its frame lives. A finished store
/// records only the length; the reader derives the offset from the
/// block's stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Absolute file offset of the frame.
    pub offset: u64,
    /// Frame length in bytes.
    pub len: u64,
}

/// One stripe: `members` consecutive blocks from block `first`, whose
/// frames run contiguously up to the parity record at `record`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripe {
    /// Index of the stripe's first block.
    pub first: usize,
    /// Blocks in the stripe.
    pub members: usize,
    /// Absolute file offset of the parity record.
    pub record: u64,
    /// Parity record length in bytes.
    pub record_len: u64,
}

/// Where every block and every stripe's parity record lives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreIndex {
    /// One entry per block, in block order.
    pub blocks: Vec<BlockEntry>,
    /// One entry per stripe, in block order; together they cover every
    /// block of a finished store.
    pub stripes: Vec<Stripe>,
}

impl StoreIndex {
    /// Blocks covered by closed stripes.
    fn striped(&self) -> usize {
        self.stripes.last().map_or(0, |s| s.first + s.members)
    }

    /// The stripe holding block `i` (which a stripe must cover).
    fn stripe_of(&self, i: usize) -> &Stripe {
        &self.stripes[self.stripes.partition_point(|s| s.first + s.members <= i)]
    }

    /// The on-disk index: frame lengths, stripe entries, CRC32.
    fn encode(&self) -> Vec<u8> {
        let len = self.blocks.len() * BLOCK_ENTRY_LEN as usize
            + self.stripes.len() * STRIPE_ENTRY_LEN as usize;
        let mut index = Vec::with_capacity(len + 4);
        for b in &self.blocks {
            let len = u32::try_from(b.len).expect("frames of blocks under 2^29 values fit a u32");
            index.extend_from_slice(&len.to_le_bytes());
        }
        for s in &self.stripes {
            index.extend_from_slice(&s.record.to_le_bytes());
            index.extend_from_slice(&(s.members as u32).to_le_bytes());
        }
        checksum::append_crc32_of(&mut index);
        index
    }
}

/// Writes a block store: append blocks, then [`finish`](StoreWriter::finish).
///
/// Every store commits in-band through [`durable::Journaled`]: every
/// `checkpoint_every` appended blocks the open stripe is closed, a
/// commit record is appended and the data fsync'd once, so after a crash
/// [`open_for_append`](StoreWriter::open_for_append) can cut the file
/// after the last verified commit, rebuild the index by re-walking the
/// committed frames and parity records, and continue. A resumed
/// store is byte-identical to an uninterrupted one. Over an in-memory
/// sink ([`new`](Self::new)) the same bytes come out.
///
/// Each commit's fsync runs on the journal's helper thread while the
/// caller compresses the next batch; the batch's first write waits for
/// it. The commit cadence therefore counts sealed commit records, not
/// settled ones.
///
/// Bytes reach the sink a stripe at a time: a stripe's blocks wait in
/// memory until its parity record is computed, and each append call
/// writes all the stripes it closed with one `write_all`.
pub struct StoreWriter<W: SyncWrite = File> {
    out: Journaled<W>,
    compressor: Compressor,
    striping: Striping,
    index: StoreIndex,
    /// Bytes appended but not yet written: closed stripes, then (from
    /// `open_at`) the open stripe's frames.
    pending: Vec<u8>,
    open_at: usize,
    checkpoint_every: usize,
}

impl StoreWriter<File> {
    /// Creates a store at `path` for blocks of `geometry` at error bound
    /// `eb` (truncating any existing store). Every `checkpoint_every`
    /// appended blocks a commit record is appended and the file
    /// fsync'd. A crash then loses at most the blocks since the last
    /// commit — recover with [`open_for_append`](Self::open_for_append).
    ///
    /// # Errors
    /// `InvalidInput` (as `StoreError::Io`) if `checkpoint_every` is 0.
    pub fn create_durable(
        path: &Path,
        geometry: BlockGeometry,
        eb: f64,
        checkpoint_every: usize,
    ) -> Result<Self, StoreError> {
        Self::over(Journaled::create(path)?, geometry, eb, checkpoint_every, StoreIndex::default())
    }

    /// Resumes an interrupted write at `path`: [`committed_index`]
    /// walks the file to its last verified commit and rebuilds the
    /// index of the blocks and stripes before it, and
    /// [`Journaled::resume`] cuts the file there. Returns the writer plus
    /// the checkpoint — `checkpoint.segments` blocks are already in the
    /// store, so the producer resumes appending from block
    /// `checkpoint.segments`.
    ///
    /// With no verified commit the store restarts from scratch (the
    /// checkpoint comes back all-zero).
    ///
    /// # Errors
    /// `Corrupt` if damage lies before a commit that verifies (the file
    /// is then left untouched) or if the header disagrees with
    /// `geometry`/`eb`.
    pub fn open_for_append(
        path: &Path,
        geometry: BlockGeometry,
        eb: f64,
        checkpoint_every: usize,
    ) -> Result<(Self, Checkpoint), StoreError> {
        check_checkpoint_every(checkpoint_every)?;
        let (out, index) = Journaled::resume(path, |file| {
            let (cp, index) = committed_index(file)?;
            let mut header = [0u8; HEADER_BODY_LEN as usize];
            if cp.bytes > 0 {
                read_exact_at(file, &mut header, 0)?;
                if header[..] != header_bytes(eb, geometry, Striping::standard())[..] {
                    return Err(StoreError::corrupt(
                        "resume parameters do not match the store header",
                    ));
                }
            }
            Ok((cp, index))
        })?;
        let cp = out.committed();
        let w = Self::over(out, geometry, eb, checkpoint_every, index)?;
        Ok((w, cp))
    }
}

impl<W: SyncWrite> StoreWriter<W> {
    /// A store written to `sink`, byte-identical to
    /// [`create_durable`](StoreWriter::create_durable)'s file.
    ///
    /// # Errors
    /// `InvalidInput` (as `StoreError::Io`) if `checkpoint_every` is 0;
    /// any I/O error writing the header.
    pub fn new(
        sink: W,
        geometry: BlockGeometry,
        eb: f64,
        checkpoint_every: usize,
    ) -> Result<Self, StoreError> {
        Self::over(Journaled::new(sink), geometry, eb, checkpoint_every, StoreIndex::default())
    }

    /// A writer over `out` whose committed prefix holds `index`'s
    /// blocks and stripes. An empty artifact first gets its header,
    /// which the first commit seals.
    fn over(
        mut out: Journaled<W>,
        geometry: BlockGeometry,
        eb: f64,
        checkpoint_every: usize,
        index: StoreIndex,
    ) -> Result<Self, StoreError> {
        check_checkpoint_every(checkpoint_every)?;
        let striping = Striping::standard();
        if out.position() == 0 {
            let header = header_bytes(eb, geometry, striping);
            out.write_all(&header)?;
            out.write_all(&crc32(&header).to_le_bytes())?;
        }
        Ok(Self {
            out,
            compressor: Compressor::new(geometry, eb),
            striping,
            index,
            pending: Vec::new(),
            open_at: 0,
            checkpoint_every,
        })
    }

    /// Closes the open stripe (if it has any blocks) by appending its
    /// parity record.
    fn close_stripe(&mut self) {
        let first = self.index.striped();
        let members = self.index.blocks.len() - first;
        if members == 0 {
            return;
        }
        let record = self.striping.record(&self.pending[self.open_at..], members);
        self.index.stripes.push(Stripe {
            first,
            members,
            record: self.out.position() + self.pending.len() as u64,
            record_len: record.len() as u64,
        });
        self.pending.extend_from_slice(&record);
        self.open_at = self.pending.len();
    }

    /// Writes every closed stripe still in memory, with one write.
    fn write_closed(&mut self) -> io::Result<()> {
        if self.open_at > 0 {
            self.out.write_all(&self.pending[..self.open_at])?;
            self.pending.drain(..self.open_at);
            self.open_at = 0;
        }
        Ok(())
    }

    /// Closes the open stripe and commits every block appended so far.
    fn commit(&mut self) -> io::Result<()> {
        self.close_stripe();
        self.write_closed()?;
        let blocks = self.index.blocks.len() as u64;
        self.out
            .commit(blocks, blocks * self.compressor.geometry().block_size() as u64)
    }

    /// Appends one block's frame to the open stripe, closing it at G
    /// blocks and committing once `checkpoint_every` blocks have
    /// accumulated since the last commit.
    fn push(&mut self, frame: &[u8]) -> io::Result<()> {
        let offset = self.out.position() + self.pending.len() as u64;
        self.pending.extend_from_slice(frame);
        self.index.blocks.push(BlockEntry {
            offset,
            len: frame.len() as u64,
        });
        if self.index.blocks.len() - self.index.striped() == self.striping.width {
            self.close_stripe();
        }
        let blocks = self.index.blocks.len() as u64;
        if blocks - self.out.sealed().segments >= self.checkpoint_every as u64 {
            self.commit()?;
        }
        Ok(())
    }

    /// Compresses and appends a batch of full blocks, fanning the
    /// compression out across the parallel runtime (the stripes are
    /// laid out sequentially, so the store is byte-identical however
    /// the blocks are split across calls).
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
        let frames: Vec<Vec<u8>> = values
            .par_chunks(bs)
            .map(|block| compressor.compress_block(block))
            .collect();
        for frame in frames {
            self.push(&frame)?;
        }
        Ok(self.write_closed()?)
    }

    /// Commits any blocks since the last commit, appends the checksummed
    /// index and the trailer, and syncs. Returns the block count.
    pub fn finish(mut self) -> Result<usize, StoreError> {
        if self.index.blocks.len() as u64 > self.out.sealed().segments {
            self.commit()?;
        }
        let index_offset = self.out.position();
        let (blocks, stripes) = (self.index.blocks.len(), self.index.stripes.len());
        let mut trailer =
            [index_offset, blocks as u64, stripes as u64].map(u64::to_le_bytes).concat();
        checksum::append_crc32_of(&mut trailer);
        self.out.write_all(&self.index.encode())?;
        self.out.write_all(&trailer)?;
        self.out.close()?;
        Ok(blocks)
    }
}

/// The last verified commit of the store in `source`, and the index of
/// the blocks and stripes it covers: the file's framing — frames,
/// parity records and commit records after the header — is walked with
/// positional reads, holding one frame or record at a time, and every
/// record goes through a [`CommitScan`]. A frame's first bytes may read
/// `PSTC` or `PSTP`, so the record magics are tried only where no frame
/// verifies. The walk stops at the first bytes that are none of these
/// (a torn tail, or a finished store's index), and the scan searches
/// what follows for a commit the walk could not reach.
///
/// # Errors
/// `Corrupt` if committed data is damaged; any I/O error.
pub fn committed_index<R: ReadAt + ?Sized>(
    source: &R,
) -> Result<(Checkpoint, StoreIndex), StoreError> {
    let corrupt = |e: io::Error| match e.kind() {
        ErrorKind::InvalidData => StoreError::corrupt("damaged bytes inside committed data"),
        _ => StoreError::Io(e),
    };
    let size = source.size()?;
    let mut scan = CommitScan::new(source)?;
    let mut index = StoreIndex::default();
    // A header whose striping is not encodable leaves nothing to walk.
    let mut header = [0u8; HEADER_BODY_LEN as usize];
    let (striping, max_frame) = if size >= HEADER_LEN {
        read_exact_at(source, &mut header, 0)?;
        let num_subblocks = u64_at(&header, 16) as usize;
        let subblock_size = u64_at(&header, 24) as usize;
        let max_frame = pastri::max_frame_len(BlockGeometry { num_subblocks, subblock_size });
        (Striping::parse(u32_at(&header, 32), u32_at(&header, 36)), max_frame as u64)
    } else {
        (None, 0)
    };
    let mut pos = HEADER_LEN;
    let mut record = [0u8; RECORD_LEN];
    while pos < size {
        let Some(striping) = striping else { break };
        let word = &mut record[..(size - pos).min(RECORD_LEN as u64) as usize];
        read_exact_at(source, word, pos)?;
        let open = index.blocks.len() - index.striped();
        if open < striping.width {
            if let Some(frame) = read_frame(source, pos, size.min(pos.saturating_add(max_frame)), word)? {
                scan.feed(pos, &frame)?;
                let len = frame.len() as u64;
                index.blocks.push(BlockEntry { offset: pos, len });
                pos += len;
                continue;
            }
        }
        if word.starts_with(&COMMIT_MAGIC) {
            if word.len() < RECORD_LEN || open > 0 {
                break; // a torn record, or one no writer puts inside a stripe
            }
            scan.record(pos, &record, index.blocks.len() as u64).map_err(corrupt)?;
            pos += RECORD_LEN as u64;
            continue;
        }
        if word.starts_with(&PARITY_MAGIC) {
            if let Some(rec) = read_parity_record(source, pos, size, striping, &index, word)? {
                scan.feed(pos, &rec)?;
                index.stripes.push(Stripe {
                    first: index.blocks.len() - open,
                    members: open,
                    record: pos,
                    record_len: rec.len() as u64,
                });
                pos += rec.len() as u64;
                continue;
            }
        }
        if word.len() == RECORD_LEN {
            // Perhaps a commit record that lost its magic.
            scan.unmarked(pos, &record).map_err(corrupt)?;
        }
        break;
    }
    let cp = scan.finish().map_err(corrupt)?;
    // `finish` writes the trailer only once its last commit is durable,
    // so a trailer that verifies names where that commit ends.
    if size >= HEADER_LEN + TRAILER_LEN {
        let mut trailer = [0u8; TRAILER_LEN as usize];
        read_exact_at(source, &mut trailer, size - TRAILER_LEN)?;
        let verified = crc32(&trailer[..24]) == u32_at(&trailer, 24);
        if verified && u64_at(&trailer, 0) != cp.bytes.max(HEADER_LEN) {
            return Err(StoreError::corrupt("damaged bytes before the index the trailer names"));
        }
    }
    index.blocks.truncate(cp.segments as usize);
    index.stripes.retain(|s| s.record < cp.bytes);
    Ok((cp, index))
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The parity record at `pos` (whose first bytes are `word`), if it
/// closes the open stripe of `index`: its member count and piece length
/// must be the ones the walked frames imply, and it must fit the
/// file — checked before anything is allocated for it.
fn read_parity_record<R: ReadAt + ?Sized>(
    source: &R,
    pos: u64,
    size: u64,
    striping: Striping,
    index: &StoreIndex,
    word: &[u8],
) -> io::Result<Option<Vec<u8>>> {
    let open = index.blocks.len() - index.striped();
    if open == 0 || word.len() < RECORD_HEAD {
        return Ok(None);
    }
    let run = pos - index.blocks[index.striped()].offset;
    let piece_len = striping.piece_len(run);
    let len = striping.record_len(piece_len);
    if u32_at(word, 4) as usize != open
        || u64::from_le_bytes(word[8..16].try_into().unwrap()) != piece_len
        || len > size - pos
    {
        return Ok(None);
    }
    let mut rec = vec![0u8; len as usize];
    read_exact_at(source, &mut rec, pos)?;
    Ok(Some(rec))
}

/// The frame at `pos` (whose first bytes are `word`), if one is there
/// that ends by `end` — checked before anything is allocated for it —
/// and whose CRC verifies.
fn read_frame<R: ReadAt + ?Sized>(
    source: &R,
    pos: u64,
    end: u64,
    word: &[u8],
) -> io::Result<Option<Vec<u8>>> {
    match pastri::frame_len(word) {
        Ok(len) if len <= end - pos => {
            let mut frame = vec![0u8; len as usize];
            read_exact_at(source, &mut frame, pos)?;
            Ok(pastri::check_frame(&frame).is_ok().then_some(frame))
        }
        _ => Ok(None),
    }
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

/// The 40 checksummed header bytes (magic through parity shards).
fn header_bytes(eb: f64, geometry: BlockGeometry, striping: Striping) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_BODY_LEN as usize);
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&eb.to_le_bytes());
    h.extend_from_slice(&(geometry.num_subblocks as u64).to_le_bytes());
    h.extend_from_slice(&(geometry.subblock_size as u64).to_le_bytes());
    h.extend_from_slice(&(striping.width as u32).to_le_bytes());
    h.extend_from_slice(&(striping.shards as u32).to_le_bytes());
    h
}

/// One damaged block found by [`StoreReader::scrub`].
#[derive(Debug)]
pub struct BlockDamage {
    /// Zero-based block index.
    pub block: usize,
    /// Absolute file offset of the block's frame.
    pub offset: u64,
    /// What was wrong with it.
    pub error: StoreError,
    /// The frame rebuilt from its stripe's parity, certified by
    /// [`pastri::check_frame`] at the length the index gives it; `None`
    /// when the damage exceeds the parity budget.
    pub repaired: Option<Vec<u8>>,
}

/// One damaged parity record found by [`StoreReader::scrub`].
#[derive(Debug)]
pub struct RecordDamage {
    /// Zero-based stripe index.
    pub stripe: usize,
    /// Absolute file offset of the record.
    pub offset: u64,
    /// The record recomputed from its stripe's blocks; `None` when some
    /// of those blocks are damaged beyond the parity budget.
    pub rebuilt: Option<Vec<u8>>,
}

/// Result of a full-store [`StoreReader::scrub`] scan.
#[derive(Debug)]
pub struct ScrubReport {
    /// Blocks scanned (the store's block count).
    pub blocks: usize,
    /// Every block that failed verification.
    pub damaged: Vec<BlockDamage>,
    /// Every parity record that failed verification.
    pub records: Vec<RecordDamage>,
}

impl ScrubReport {
    /// Did every block and every parity record verify?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty() && self.records.is_empty()
    }

    /// Damaged blocks whose frames rebuilt byte-identical.
    #[must_use]
    pub fn repairable(&self) -> usize {
        self.damaged.iter().filter(|d| d.repaired.is_some()).count()
    }

    /// Damaged parity records that were recomputed.
    #[must_use]
    pub fn rebuildable_records(&self) -> usize {
        self.records.iter().filter(|r| r.rebuilt.is_some()).count()
    }

    /// Splices every rebuilt frame and parity record into `bytes`,
    /// the scanned store file's contents. Unrepairable damage is left as
    /// it is.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] if a rebuilt span would not fit inside
    /// `bytes` (they are not the bytes that were scanned).
    pub fn heal(&self, bytes: &mut [u8]) -> Result<(), StoreError> {
        let blocks = (self.damaged.iter())
            .filter_map(|d| Some((Some(d.block), d.offset, d.repaired.as_deref()?)));
        let records = (self.records.iter())
            .filter_map(|r| Some((None, r.offset, r.rebuilt.as_deref()?)));
        for (block, offset, fix) in blocks.chain(records) {
            let span = usize::try_from(offset)
                .ok()
                .and_then(|start| Some(start..start.checked_add(fix.len())?))
                .filter(|span| span.end <= bytes.len())
                .ok_or(StoreError::Corrupt {
                    block,
                    offset: Some(offset),
                    reason: "repaired span falls outside the file",
                })?;
            bytes[span].copy_from_slice(fix);
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
    striping: Striping,
    index: StoreIndex,
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
    /// index checksums and the index's layout, and loads the index.
    pub fn from_source(source: R, retry: RetryPolicy) -> Result<Self, StoreError> {
        let stats = SharedStats::default();
        let file_len = source.size()?;
        let mut header = [0u8; HEADER_BODY_LEN as usize];
        read_exact_retry(&source, &mut header, 0, &retry, &stats)?;
        if header[..8] != MAGIC {
            return Err(StoreError::corrupt("bad magic"));
        }
        read_stored_crc(&source, &retry, &stats, &header, HEADER_BODY_LEN, HEADER_BODY_LEN)?;

        let eb = f64::from_le_bytes(header[8..16].try_into().unwrap());
        if !(eb.is_finite() && eb > 0.0) {
            return Err(StoreError::corrupt("invalid error bound"));
        }
        let (num_sb, sb_size) = (u64_at(&header, 16) as usize, u64_at(&header, 24) as usize);
        if num_sb == 0 || sb_size == 0 || num_sb.saturating_mul(sb_size) > (1 << 28) {
            return Err(StoreError::corrupt("implausible geometry"));
        }
        let striping = Striping::parse(u32_at(&header, 32), u32_at(&header, 36))
            .ok_or(StoreError::corrupt("implausible stripe geometry"))?;
        // The trailer — the last thing `finish` writes — says where the
        // index is. An unfinished store has none, so its checksum fails.
        if file_len < HEADER_LEN + 4 + TRAILER_LEN {
            return Err(StoreError::corrupt("no trailer: the store was never finished"));
        }
        let trailer_at = file_len - TRAILER_LEN;
        let mut trailer = [0u8; TRAILER_LEN as usize - 4];
        read_exact_retry(&source, &mut trailer, trailer_at, &retry, &stats)?;
        read_stored_crc(&source, &retry, &stats, &trailer, file_len - 4, trailer_at)?;
        let [index_offset, num_blocks, num_stripes] =
            [0, 8, 16].map(|o| u64::from_le_bytes(trailer[o..o + 8].try_into().unwrap()));
        // Index plausibility: the index and its CRC must fill the bytes
        // between the index offset and the trailer exactly — checked
        // *before* the index allocation, so hostile counts cannot
        // request more memory than the file could hold.
        let index_bytes_len = num_blocks
            .checked_mul(BLOCK_ENTRY_LEN)
            .zip(num_stripes.checked_mul(STRIPE_ENTRY_LEN))
            .and_then(|(b, s)| b.checked_add(s));
        if index_offset < HEADER_LEN
            || index_bytes_len
                .and_then(|n| n.checked_add(4))
                .and_then(|n| index_offset.checked_add(n))
                != Some(trailer_at)
        {
            return Err(StoreError::corrupt("index out of bounds"));
        }
        let index_bytes_len = trailer_at - 4 - index_offset;
        let mut index_bytes = vec![0u8; index_bytes_len as usize];
        read_exact_retry(&source, &mut index_bytes, index_offset, &retry, &stats)?;
        let crc_at = index_offset + index_bytes_len;
        read_stored_crc(&source, &retry, &stats, &index_bytes, crc_at, index_offset)?;
        let (block_bytes, stripe_bytes) =
            index_bytes.split_at((num_blocks * BLOCK_ENTRY_LEN) as usize);
        let index = index_entries(block_bytes, stripe_bytes, striping, index_offset)?;
        Ok(Self {
            source,
            retry,
            geometry: BlockGeometry::new(num_sb, sb_size),
            error_bound: eb,
            striping,
            index,
            stats,
        })
    }

    /// Number of stored blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.index.blocks.len()
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

    /// Where every block and parity record lives.
    #[must_use]
    pub fn index(&self) -> &StoreIndex {
        &self.index
    }

    /// Lifetime counters: transient retries absorbed, backoff slept,
    /// blocks repaired from parity, blocks lost — summed over every
    /// thread that has read through this reader.
    #[must_use]
    pub fn read_stats(&self) -> ReadStats {
        self.stats.snapshot()
    }

    /// Reads block `i`'s frame and [certifies](certify) it.
    fn read_block_bytes(&self, i: usize) -> Result<Vec<u8>, StoreError> {
        let entry = *self.index.blocks.get(i).ok_or(StoreError::OutOfRange {
            index: i,
            blocks: self.num_blocks(),
        })?;
        let mut frame = vec![0u8; entry.len as usize];
        read_exact_retry(&self.source, &mut frame, entry.offset, &self.retry, &self.stats)?;
        certify(&frame, i, entry.offset)?;
        Ok(frame)
    }

    /// `stripe`'s bytes in one positional read — its frames, then
    /// its parity record — and where the record starts in them.
    fn read_stripe(&self, stripe: &Stripe) -> Result<(Vec<u8>, usize), StoreError> {
        let start = self.index.blocks[stripe.first].offset;
        let mut bytes = vec![0u8; (stripe.record + stripe.record_len - start) as usize];
        read_exact_retry(&self.source, &mut bytes, start, &self.retry, &self.stats)?;
        Ok((bytes, (stripe.record - start) as usize))
    }

    /// Block `entry`'s bytes inside `run`, the frames of a stripe
    /// starting at block `first`.
    fn member<'a>(&self, run: &'a [u8], first: usize, entry: &BlockEntry) -> &'a [u8] {
        let at = (entry.offset - self.index.blocks[first].offset) as usize;
        &run[at..at + entry.len as usize]
    }

    /// Attempts to rebuild block `i`'s frame from its stripe. The
    /// repair is accepted only if the rebuilt frame passes
    /// [`pastri::check_frame`] at its index length, so a wrong repair
    /// can never masquerade as a right one.
    fn try_repair_block(&self, i: usize) -> Option<Vec<u8>> {
        let stripe = self.index.stripe_of(i);
        let (bytes, run) = self.read_stripe(stripe).ok()?;
        let rebuilt = self.striping.rebuild(&bytes[..run], &bytes[run..])?;
        let block = self.member(&rebuilt, stripe.first, &self.index.blocks[i]);
        pastri::check_frame(block).is_ok().then(|| block.to_vec())
    }

    /// Reads and decompresses block `i` (random access: one positional
    /// read of the compressed payload). A block whose checksum fails is
    /// transparently rebuilt from its stripe's parity when possible (one
    /// more positional read, of the whole stripe; counted in
    /// [`ReadStats::blocks_repaired`]); damage beyond the parity budget
    /// is reported with the block index and file offset attached (and
    /// counted in [`ReadStats::blocks_dropped`]).
    pub fn read_block(&self, i: usize) -> Result<Vec<f64>, StoreError> {
        let (frame, _) = self.read_frame_noting_repair(i)?;
        pastri::decompress_block(&frame, self.geometry, self.error_bound).map_err(|e| {
            self.stats.dropped();
            e.into()
        })
    }

    /// Block `i`'s frame exactly as the writer stored it, without
    /// decoding: the bytes that pass [`pastri::check_frame`], or, when
    /// they are damaged, the frame rebuilt from its stripe's parity
    /// (counted in [`ReadStats::blocks_repaired`]; damage beyond the
    /// budget counts in [`ReadStats::blocks_dropped`]). The flag says
    /// whether *this* read repaired: threads sharing the reader cannot
    /// learn that by diffing [`read_stats`](Self::read_stats) around the
    /// call, since another thread's repair may land in between. Decode
    /// the bytes with [`pastri::decompress_block`] at this store's
    /// geometry and error bound.
    pub fn read_frame_noting_repair(&self, i: usize) -> Result<(Vec<u8>, bool), StoreError> {
        match self.read_block_bytes(i) {
            Ok(p) => Ok((p, false)),
            Err(e @ (StoreError::Checksum { .. } | StoreError::Corrupt { .. })) => {
                match self.try_repair_block(i) {
                    Some(rebuilt) => {
                        self.stats.repaired();
                        Ok((rebuilt, true))
                    }
                    None => {
                        self.stats.dropped();
                        Err(e)
                    }
                }
            }
            Err(e) => Err(e),
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

    /// Scans every stripe — one read each — and reports all damage,
    /// instead of stopping at the first bad block like
    /// [`read_all`](Self::read_all): each damaged block with its
    /// frame rebuilt from the stripe's parity where the budget
    /// allows, and each damaged parity record with its recomputed bytes
    /// when its blocks are (or were rebuilt) intact.
    ///
    /// Blocks are certified by [`pastri::check_frame`] — a frame whose
    /// payload CRC verifies at its index length is exactly what the
    /// writer produced, so decodability follows without paying for
    /// decompression. A caller heals the store by splicing the rebuilt
    /// bytes into a copy of the file ([`ScrubReport::heal`]) and
    /// atomically swapping it in.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport {
            blocks: self.num_blocks(),
            damaged: Vec::new(),
            records: Vec::new(),
        };
        for (s, stripe) in self.index.stripes.iter().enumerate() {
            let (bytes, run) = self.read_stripe(stripe)?;
            let (run, record) = bytes.split_at(run);
            let members = &self.index.blocks[stripe.first..stripe.first + stripe.members];
            let bad: Vec<(usize, StoreError)> = (members.iter().enumerate())
                .filter_map(|(j, entry)| {
                    let frame = self.member(run, stripe.first, entry);
                    Some((j, certify(frame, stripe.first + j, entry.offset).err()?))
                })
                .collect();
            let record_intact = self.striping.record_intact(run, stripe.members, record);
            if bad.is_empty() && record_intact {
                continue;
            }
            let rebuilt = if bad.is_empty() {
                None
            } else {
                self.striping.rebuild(run, record)
            };
            let mut healed = run.to_vec();
            let mut intact = true;
            for (j, error) in bad {
                let (i, entry) = (stripe.first + j, &members[j]);
                let repaired = (rebuilt.as_deref())
                    .map(|r| self.member(r, stripe.first, entry))
                    .filter(|b| pastri::check_frame(b).is_ok())
                    .map(<[u8]>::to_vec);
                let at = (entry.offset - members[0].offset) as usize;
                match &repaired {
                    Some(block) => healed[at..at + block.len()].copy_from_slice(block),
                    None => intact = false,
                }
                report.damaged.push(BlockDamage {
                    block: i,
                    offset: entry.offset,
                    error,
                    repaired,
                });
            }
            if !record_intact {
                report.records.push(RecordDamage {
                    stripe: s,
                    offset: stripe.record,
                    rebuilt: intact.then(|| self.striping.record(&healed, stripe.members)),
                });
            }
        }
        Ok(report)
    }
}

/// Certifies block `i`'s stored `frame`, read from `offset`, with
/// [`pastri::check_frame`]: its payload CRC32 must verify, and its
/// length varint must span exactly the bytes the index gives the block.
fn certify(frame: &[u8], i: usize, offset: u64) -> Result<(), StoreError> {
    let (block, offset) = (Some(i), Some(offset));
    match pastri::check_frame(frame) {
        Ok(_) => Ok(()),
        Err(pastri::DecompressError::ChecksumMismatch { expected, actual, .. }) => {
            Err(StoreError::Checksum { block, offset, expected, actual })
        }
        Err(_) => {
            let reason = "frame does not span its index entry";
            Err(StoreError::Corrupt { block, offset, reason })
        }
    }
}

/// The index of a store from its on-disk entries: `lengths`, one u32
/// frame length per block, and `stripes`, one entry per stripe. A
/// stripe's frames run contiguously up to its parity record, so its
/// first block starts at `record` minus the lengths of its members. The
/// entries must describe a layout the writer produces: stripes of
/// 1..=G blocks covering every block in order, each starting at or after
/// the end of the previous record (of the header, for the first) and
/// each record ending before the index. Stripe reads then stay inside
/// the file.
fn index_entries(
    lengths: &[u8],
    stripes: &[u8],
    striping: Striping,
    index_offset: u64,
) -> Result<StoreIndex, StoreError> {
    let lengths: Vec<u64> = lengths.chunks_exact(4).map(|e| u64::from(u32_at(e, 0))).collect();
    let bad = || StoreError::corrupt("stripe entry does not match the blocks");
    let mut index = StoreIndex {
        blocks: Vec::with_capacity(lengths.len()),
        stripes: Vec::with_capacity(stripes.len() / STRIPE_ENTRY_LEN as usize),
    };
    let mut end = HEADER_LEN;
    for entry in stripes.chunks_exact(STRIPE_ENTRY_LEN as usize) {
        let record = u64_at(entry, 0);
        let members = u32_at(entry, 8) as usize;
        let first = index.blocks.len();
        if !(1..=striping.width).contains(&members) {
            return Err(bad());
        }
        let run = lengths.get(first..first + members).ok_or_else(bad)?;
        // At most 255 lengths of at most 2^32 bytes: no overflow.
        let run_len: u64 = run.iter().sum();
        let start = record.checked_sub(run_len).filter(|&start| start >= end);
        let mut offset = start.ok_or_else(bad)?;
        for &len in run {
            index.blocks.push(BlockEntry { offset, len });
            offset += len;
        }
        let record_len = striping.record_len(striping.piece_len(run_len));
        end = record
            .checked_add(record_len)
            .filter(|&e| e <= index_offset)
            .ok_or_else(bad)?;
        index.stripes.push(Stripe {
            first,
            members,
            record,
            record_len,
        });
    }
    if index.blocks.len() != lengths.len() {
        return Err(StoreError::corrupt("stripes do not cover the blocks"));
    }
    Ok(index)
}

#[cfg(test)]
mod durable_writer;

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultConfig, FaultyReader};

    pub(crate) fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("eri-store-{}-{name}", std::process::id()))
    }

    pub(crate) fn patterned_block(geom: BlockGeometry, seed: usize) -> Vec<f64> {
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
            w.append_blocks(b).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        let spans = r.index.blocks.iter().map(|e| (e.offset, e.len)).collect();
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

    /// A store of `blocks` committed every `every`, written in memory.
    pub(crate) fn memory_store(
        geom: BlockGeometry,
        eb: f64,
        blocks: &[Vec<f64>],
        every: usize,
    ) -> Vec<u8> {
        let mut sink = Vec::new();
        let mut w = StoreWriter::new(&mut sink, geom, eb, every).unwrap();
        for b in blocks {
            w.append_blocks(b).unwrap();
        }
        w.finish().unwrap();
        sink
    }

    #[test]
    fn durable_store_is_byte_identical_and_drops_journal_on_finish() {
        // A file store equals the in-memory one and leaves no sidecar.
        let geom = BlockGeometry::new(6, 8);
        let blocks: Vec<Vec<f64>> = (0..11).map(|b| patterned_block(geom, b)).collect();
        let path = tmp("durable-identical");
        let mut w = StoreWriter::create_durable(&path, geom, 1e-10, 3).unwrap();
        for b in &blocks {
            w.append_blocks(b).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 11);
        assert_eq!(std::fs::read(&path).unwrap(), memory_store(geom, 1e-10, &blocks, 3));
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let sidecars: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n.len() > stem.len())
            .collect();
        assert!(sidecars.is_empty(), "{sidecars:?}");
        // Four commits (3 + 3 + 3 + the finishing 2) and no patched bytes:
        // the file opens and its blocks read back.
        let (cp, index) = committed_index(&std::fs::read(&path).unwrap().as_slice()).unwrap();
        assert_eq!((cp.segments, index.blocks.len()), (11, 11));
        // Stripes close at every commit, and at finish.
        let members: Vec<usize> = index.stripes.iter().map(|s| s.members).collect();
        assert_eq!(members, [3, 3, 3, 2]);
        let r = StoreReader::open(&path).unwrap();
        assert!(r.scrub().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_durable_store_resumes_byte_identical() {
        let geom = BlockGeometry::new(6, 8);
        let eb = 1e-10;
        let blocks: Vec<Vec<f64>> = (0..17).map(|b| patterned_block(geom, b)).collect();
        let path = tmp("durable-resume");
        {
            let mut w = StoreWriter::create_durable(&path, geom, eb, 4).unwrap();
            for b in &blocks[..10] {
                w.append_blocks(b).unwrap();
            }
            // "Crash": dropped without finish. Blocks 8..10 were never
            // checkpointed and will be truncated away on resume.
        }
        let (mut w, cp) = StoreWriter::open_for_append(&path, geom, eb, 4).unwrap();
        assert_eq!(cp.segments, 8, "two full batches of 4 committed");
        assert_eq!(cp.values, 8 * geom.block_size() as u64);
        for b in &blocks[cp.segments as usize..] {
            w.append_blocks(b).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 17);
        assert_eq!(std::fs::read(&path).unwrap(), memory_store(geom, eb, &blocks, 4));

        // And the resumed store verifies clean.
        let r = StoreReader::open(&path).unwrap();
        assert!(r.scrub().unwrap().is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_checkpoint_every_is_rejected() {
        let geom = BlockGeometry::new(4, 4);
        let err = StoreWriter::new(Vec::new(), geom, 1e-9, 0).err().expect("refused");
        assert!(matches!(err, StoreError::Io(ref e) if e.kind() == ErrorKind::InvalidInput));
    }

    #[test]
    fn committed_prefix_is_always_readable_mid_write() {
        // Mid-write (no index or trailer yet), every committed block's
        // frame decodes from the bytes up to the last commit alone.
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..10).map(|b| patterned_block(geom, b)).collect();
        let path = tmp("prefix-readable");
        let mut w = StoreWriter::create_durable(&path, geom, 1e-9, 5).unwrap();
        for b in &blocks {
            w.append_blocks(b).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let (cp, index) = committed_index(&bytes.as_slice()).unwrap();
        assert_eq!((cp.segments, cp.bytes), (10, bytes.len() as u64));
        let prefix = &bytes[..cp.bytes as usize];
        for (entry, want) in index.blocks.iter().zip(&blocks) {
            let frame = &prefix[entry.offset as usize..(entry.offset + entry.len) as usize];
            let got = pastri::decompress_block(frame, geom, 1e-9).unwrap();
            assert!(got.iter().zip(want).all(|(g, v)| (g - v).abs() <= 1e-9));
        }
        w.finish().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_flip_in_the_last_commit_record_is_refused() {
        // The finished store's last commit record is followed by the
        // index and trailer, so a flip anywhere in it — magic included —
        // is damage to committed bytes: refused, never trimmed.
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..8).map(|b| patterned_block(geom, b)).collect();
        let clean = memory_store(geom, 1e-9, &blocks, 3);
        let end = committed_index(&clean.as_slice()).unwrap().0.bytes as usize;
        let path = tmp("last-record");
        for at in end - RECORD_LEN..end {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            assert!(
                matches!(committed_index(&bytes.as_slice()), Err(StoreError::Corrupt { .. })),
                "flip at {at}"
            );
            std::fs::write(&path, &bytes).unwrap();
            assert!(StoreWriter::open_for_append(&path, geom, 1e-9, 3).is_err(), "flip at {at}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "flip at {at}: nothing trimmed");
        }
        // Cut just after that record (no index yet), the same flips of
        // its magic are a torn tail: the commit before it wins.
        let torn = &clean[..end];
        let (previous, _) = committed_index(&torn[..end - 1]).unwrap();
        assert_eq!(previous.segments, 6);
        for at in end - RECORD_LEN..end - RECORD_LEN + 4 {
            let mut bytes = torn.to_vec();
            bytes[at] ^= 0x20;
            assert_eq!(committed_index(&bytes.as_slice()).unwrap().0, previous, "flip at {at}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_for_append_without_journal_restarts() {
        // Killed before its first commit: nothing to keep.
        let geom = BlockGeometry::new(4, 4);
        let path = tmp("durable-nojournal");
        {
            let mut w = StoreWriter::create_durable(&path, geom, 1e-9, 2).unwrap();
            w.append_blocks(&patterned_block(geom, 0)).unwrap();
        }
        let (mut w, cp) = StoreWriter::open_for_append(&path, geom, 1e-9, 2).unwrap();
        assert_eq!(cp, Checkpoint::default());
        for b in 0..3 {
            w.append_blocks(&patterned_block(geom, b)).unwrap();
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
            w.append_blocks(&patterned_block(geom, 0)).unwrap();
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
    }

    #[test]
    fn open_for_append_rejects_a_checkpoint_inside_the_header() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..4).map(|b| patterned_block(geom, b)).collect();
        let clean = memory_store(geom, 1e-9, &blocks, 2);
        let path = tmp("durable-header-flip");
        // A flipped header bit lies inside the first commit's span, and
        // the second commit still verifies: corruption, file untouched.
        let mut bytes = clean.clone();
        bytes[10] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            StoreWriter::open_for_append(&path, geom, 1e-9, 2),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // A forged record claiming to end inside the header verifies
        // nothing: the store restarts rather than trusting it.
        let mut forged = Journaled::new(Vec::new());
        forged.write_all(&clean[..HEADER_LEN as usize]).unwrap();
        forged.commit(1, 16).unwrap();
        let mut bytes = forged.close().unwrap().0;
        bytes[HEADER_LEN as usize + 20..][..8].copy_from_slice(&10u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (_, cp) = StoreWriter::open_for_append(&path, geom, 1e-9, 2).unwrap();
        assert_eq!(cp, Checkpoint::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_trimmed_but_a_flip_before_a_verified_commit_is_corrupt() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..6).map(|b| patterned_block(geom, b)).collect();
        let clean = memory_store(geom, 1e-9, &blocks, 2);
        let (cp, index) = committed_index(&clean.as_slice()).unwrap();
        assert_eq!(cp.segments, 6, "the index and trailer are past the last commit");
        let path = tmp("durable-torn-vs-flip");
        // Torn inside block 5 (after the commit sealing blocks 0..4):
        // trimmed back to 4 blocks, and the resume finishes identical.
        let BlockEntry { offset: off5, len: len5, .. } = index.blocks[5];
        std::fs::write(&path, &clean[..(off5 + len5 / 2) as usize]).unwrap();
        let (mut w, cp) = StoreWriter::open_for_append(&path, geom, 1e-9, 2).unwrap();
        assert_eq!(cp.segments, 4);
        for b in &blocks[4..] {
            w.append_blocks(b).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), clean);
        // A flip inside block 1, sealed by commits that still verify.
        let BlockEntry { offset: off1, len: len1, .. } = index.blocks[1];
        let mut bytes = clean.clone();
        bytes[(off1 + len1 / 2) as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            StoreWriter::open_for_append(&path, geom, 1e-9, 2),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn framing_damage_before_a_verified_commit_is_corrupt_and_kept() {
        // A flipped frame length stops the walk at that block; the
        // commits past it still verify, so nothing may be trimmed. A
        // flipped magic in the last commit record hides that record, but
        // the finished store's trailer says where the last commit ends.
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..6).map(|b| patterned_block(geom, b)).collect();
        let clean = memory_store(geom, 1e-9, &blocks, 2);
        let (cp, index) = committed_index(&clean.as_slice()).unwrap();
        let last_record = (cp.bytes - RECORD_LEN as u64) as usize;
        let path = tmp("framing-flip");
        for at in [0, 3, 5].map(|block| index.blocks[block].offset as usize).into_iter().chain([last_record]) {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    StoreWriter::open_for_append(&path, geom, 1e-9, 2),
                    Err(StoreError::Corrupt { .. })
                ),
                "flip at {at}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "flip at {at}: nothing trimmed");
        }
        // Unfinished, with a stripe written after its last commit: that
        // commit's record with a flipped magic still names itself and
        // seals a span that verifies, so it is damage, not a tail.
        let blocks: Vec<Vec<f64>> = (0..17).map(|b| patterned_block(geom, b)).collect();
        let mut bytes = Vec::new();
        let mut w = StoreWriter::new(&mut bytes, geom, 1e-9, 9).unwrap();
        for b in &blocks {
            w.append_blocks(b).unwrap();
        }
        drop(w);
        let (cp, index) = committed_index(&bytes.as_slice()).unwrap();
        assert_eq!((cp.segments, index.stripes.len()), (9, 2));
        assert!(bytes.len() as u64 > cp.bytes, "the third stripe follows the commit");
        bytes[cp.bytes as usize - RECORD_LEN] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            StoreWriter::open_for_append(&path, geom, 1e-9, 9),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing trimmed");
        // A finished store with no blocks has no commit, yet reopens.
        std::fs::write(&path, memory_store(geom, 1e-9, &[], 2)).unwrap();
        let (_, cp) = StoreWriter::open_for_append(&path, geom, 1e-9, 2).unwrap();
        assert_eq!(cp, Checkpoint::default());
        let _ = std::fs::remove_file(&path);
    }

    /// A frame of an 80-byte payload — length varint `0x50`, `P` — whose
    /// CRC's bytes are `crc` and whose payload starts with `head`. CRC32
    /// is affine: a message followed by its own CRC has the fixed CRC
    /// `0x2144df1c`, and XORing `d` into that suffix moves the CRC by `d`
    /// shifted through 32 zero bits. Running the register back 32 bits
    /// from the wanted change gives `d`.
    fn forged_frame(crc: [u8; 4], head: &[u8]) -> Vec<u8> {
        let mut d = u32::from_le_bytes(crc) ^ 0x2144_df1c;
        for _ in 0..32 {
            d = if d >> 31 == 1 { (d ^ 0xEDB8_8320) << 1 | 1 } else { d << 1 };
        }
        let mut payload = head.to_vec();
        payload.resize(76, 0x2A);
        payload.extend_from_slice(&(crc32(&payload) ^ d).to_le_bytes());
        [&[0x50], &crc[..], &payload].concat()
    }

    /// Ten frames of 4×4 blocks, the one at `at` replaced by `forged`,
    /// pushed with a commit every 3 blocks, the tenth left torn: the
    /// recovery walk takes the forged frame as a block and returns the
    /// writer's index, and a resume finishes byte-identical to an
    /// uninterrupted run.
    fn walk_takes_a_forged_frame(at: usize, forged: Vec<u8>) {
        let (geom, eb) = (BlockGeometry::new(4, 4), 1e-9);
        let compressor = Compressor::new(geom, eb);
        let mut frames: Vec<Vec<u8>> =
            (0..10).map(|b| compressor.compress_block(&patterned_block(geom, b))).collect();
        frames[at] = forged;
        let (mut uninterrupted, mut bytes) = (Vec::new(), Vec::new());
        let mut w = StoreWriter::new(&mut uninterrupted, geom, eb, 3).unwrap();
        frames.iter().for_each(|f| w.push(f).unwrap());
        w.finish().unwrap();
        let mut w = StoreWriter::new(&mut bytes, geom, eb, 3).unwrap();
        frames[..9].iter().for_each(|f| w.push(f).unwrap());
        let written = w.index.clone();
        drop(w);
        bytes.extend_from_slice(&frames[9][..frames[9].len() / 2]);
        assert_eq!(committed_index(&bytes.as_slice()).unwrap().1, written);
        let path = tmp(&format!("forged-{at}"));
        std::fs::write(&path, &bytes).unwrap();
        let (mut w, cp) = StoreWriter::open_for_append(&path, geom, eb, 3).unwrap();
        assert_eq!(cp.segments, 9);
        w.push(&frames[9]).unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), uninterrupted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frames_that_read_as_records_are_blocks() {
        // Block 3 follows the commit sealing blocks 0..3 and opens a
        // stripe: its frame starts `PSTC`.
        let commit = forged_frame(*b"STC\0", &[]);
        assert_eq!(commit[..4], COMMIT_MAGIC);
        walk_takes_a_forged_frame(3, commit);
        // Block 4 follows block 3 in that stripe: its frame starts like
        // the record that would close the stripe there, `PSTP`, one
        // member and block 3's piece length.
        let geom = BlockGeometry::new(4, 4);
        let block3 = Compressor::new(geom, 1e-9).compress_block(&patterned_block(geom, 3));
        let piece_len = Striping::standard().piece_len(block3.len() as u64);
        let parity = forged_frame(*b"STP\x01", &[&[0; 3][..], &piece_len.to_le_bytes()].concat());
        assert_eq!(parity[..16], [&PARITY_MAGIC[..], &1u32.to_le_bytes(), &piece_len.to_le_bytes()].concat());
        walk_takes_a_forged_frame(4, parity);
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
                w.append_blocks(b).unwrap();
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
            w.append_blocks(&[1e-5; 4]).unwrap();
            // dropped without finish()
        }
        let err = StoreReader::open(&path);
        assert!(err.is_err(), "a store with no trailer must be rejected");
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
        let mut w = StoreWriter::create_durable(&path, geom, 1e-8, 64).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.append_blocks(&[0.0; 3]);
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
        let err = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap_err();
        assert!(
            matches!(err, StoreError::Checksum { block: None, .. }),
            "got {err:?}"
        );
    }

    /// A finished store of 20 blocks in stripes of 8, 8 and 4, its
    /// reader, and each block's clean values.
    fn striped_store() -> (Vec<u8>, Vec<Vec<f64>>) {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..20).map(|b| patterned_block(geom, b)).collect();
        let (bytes, _) = store_bytes(geom, 1e-9, &blocks);
        let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        let members: Vec<usize> = r.index.stripes.iter().map(|s| s.members).collect();
        assert_eq!(members, [8, 8, 4]);
        let values = (0..20).map(|i| r.read_block(i).unwrap()).collect();
        (bytes, values)
    }

    /// The bytes of stripe `s` of `bytes`: where its frames start,
    /// where its parity record starts, and where that record ends.
    fn stripe_span(bytes: &[u8], s: usize) -> (usize, usize, usize) {
        let r = StoreReader::from_source(bytes, RetryPolicy::none()).unwrap();
        let stripe = r.index.stripes[s];
        let start = r.index.blocks[stripe.first].offset as usize;
        (start, stripe.record as usize, (stripe.record + stripe.record_len) as usize)
    }

    /// One byte in the middle of each non-empty data piece and each
    /// parity shard of stripe `s`, in piece order.
    fn piece_middles(bytes: &[u8], s: usize) -> Vec<usize> {
        let (start, record, _) = stripe_span(bytes, s);
        let striping = Striping::standard();
        let piece_len = striping.piece_len((record - start) as u64) as usize;
        let data = (0..striping.width)
            .map(|k| (k * piece_len, ((k + 1) * piece_len).min(record - start)))
            .filter(|(from, to)| from < to)
            .map(|(from, to)| start + (from + to) / 2);
        let shards_at = record + RECORD_HEAD + 4 * (striping.width + striping.shards);
        data.chain((0..striping.shards).map(|j| shards_at + j * piece_len + piece_len / 2))
            .collect()
    }

    #[test]
    fn stripes_cost_p_over_g_of_their_blocks() {
        let (bytes, _) = striped_store();
        let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        for (s, stripe) in r.index.stripes.iter().enumerate() {
            let (start, record, end) = stripe_span(&bytes, s);
            let piece_len = (record - start).div_ceil(8);
            assert_eq!(end - record, 16 + 4 * 10 + 2 * piece_len + 4, "stripe {s}");
            assert_eq!(&bytes[record..record + 4], b"PSTP");
            assert_eq!(stripe.first, 8 * s);
        }
        // Parity-free members: every block is one bare frame.
        for b in &r.index.blocks {
            pastri::check_frame(&bytes[b.offset as usize..(b.offset + b.len) as usize]).unwrap();
        }
    }

    #[test]
    fn payload_flip_repairs_on_read() {
        // One flip in block 12, the fifth member of stripe 1.
        let (clean_bytes, clean) = striped_store();
        let (off, len) = {
            let r = StoreReader::from_source(&clean_bytes[..], RetryPolicy::none()).unwrap();
            (r.index.blocks[12].offset, r.index.blocks[12].len)
        };
        let mut bytes = clean_bytes.clone();
        bytes[(off + len / 2) as usize] ^= 0x01;

        let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        // Undamaged blocks still read, and don't touch the repair stats.
        for i in (0..20).filter(|&i| i != 12) {
            assert_eq!(r.read_block(i).unwrap(), clean[i]);
        }
        assert_eq!(r.read_stats().blocks_repaired, 0);
        // The damaged one is rebuilt from its stripe's parity and served
        // bit-exact — and the repair is accounted for.
        assert_eq!(r.read_block(12).unwrap(), clean[12], "repaired read must match the clean read");
        assert_eq!(r.read_stats().blocks_repaired, 1);
        assert_eq!(r.read_stats().blocks_dropped, 0);

        // scrub() still reports the on-disk damage (it certifies bytes,
        // not serveability), classifies it repairable with a rebuilt
        // frame byte-identical to what the writer stored, and heals
        // the file's bytes back to the clean store.
        let report = r.scrub().unwrap();
        assert_eq!(report.blocks, 20);
        assert_eq!(report.damaged.len(), 1);
        assert!(report.records.is_empty(), "the parity record is intact");
        assert_eq!(report.repairable(), 1);
        assert_eq!(report.damaged[0].block, 12);
        assert_eq!(report.damaged[0].offset, off);
        assert_eq!(
            report.damaged[0].repaired.as_deref(),
            Some(&clean_bytes[off as usize..(off + len) as usize])
        );
        let mut healed = r.source.to_vec();
        report.heal(&mut healed).unwrap();
        assert_eq!(healed, clean_bytes);
        // A rebuilt frame that would not fit the given bytes is
        // refused, not spliced.
        let err = report
            .heal(&mut healed[..(off + len / 2) as usize])
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { block: Some(12), .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn damage_beyond_parity_budget_pinned_to_block() {
        // Block 12's whole frame and its stripe's parity record
        // shredded: at least three erasures against a two-shard budget.
        let (mut bytes, clean) = striped_store();
        let (_, record, end) = stripe_span(&bytes, 1);
        let (off, len) = {
            let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
            (r.index.blocks[12].offset, r.index.blocks[12].len)
        };
        for p in (off + 8..off + len).step_by(7).chain((record as u64..end as u64).step_by(7)) {
            bytes[p as usize] ^= 0x55;
        }
        let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
        // Its stripe-mates' own bytes are intact, so they still read.
        for i in (0..20).filter(|&i| i != 12) {
            assert_eq!(r.read_block(i).unwrap(), clean[i]);
        }
        // Pinned by index and offset, and counted as dropped.
        match r.read_block(12).unwrap_err() {
            StoreError::Checksum { block, offset, .. } => {
                assert_eq!(block, Some(12));
                assert_eq!(offset, Some(off));
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
        assert_eq!(r.read_stats().blocks_dropped, 1);
        assert_eq!(r.read_stats().blocks_repaired, 0);
        // scrub() agrees: the block is beyond repair, and so the record
        // cannot be recomputed either.
        let report = r.scrub().unwrap();
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].block, 12);
        assert!(report.damaged[0].repaired.is_none());
        assert_eq!(report.repairable(), 0);
        assert_eq!(report.records.len(), 1);
        assert_eq!((report.records[0].stripe, report.records[0].offset), (1, record as u64));
        assert!(report.records[0].rebuilt.is_none());
    }

    #[test]
    fn every_single_byte_flip_in_a_stripe_heals_byte_identical() {
        // Every byte of stripe 1 — its eight frames and its parity
        // record — flipped in turn: reads serve the clean values, and
        // scrub finds exactly one damaged block (repairable) or the
        // damaged record alone (rebuildable), and heals the file.
        let (clean_bytes, clean) = striped_store();
        let (start, record, end) = stripe_span(&clean_bytes, 1);
        for at in start..end {
            let mut bytes = clean_bytes.clone();
            bytes[at] ^= 0x5A;
            let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
            for (i, want) in clean.iter().enumerate().take(16).skip(8) {
                assert_eq!(&r.read_block(i).unwrap(), want, "flip at {at}: block {i}");
            }
            assert_eq!(r.read_stats().blocks_dropped, 0);
            let report = r.scrub().unwrap();
            if at < record {
                assert_eq!((report.damaged.len(), report.repairable()), (1, 1), "flip at {at}");
                assert!(report.records.is_empty(), "flip at {at}");
            } else {
                assert!(report.damaged.is_empty(), "flip at {at}");
                assert_eq!((report.records.len(), report.rebuildable_records()), (1, 1));
            }
            report.heal(&mut bytes).unwrap();
            assert!(bytes == clean_bytes, "flip at {at}: heal must be byte-identical");
        }
    }

    #[test]
    fn any_two_damaged_pieces_repair_and_three_are_refused() {
        let (clean_bytes, clean) = striped_store();
        let middles = piece_middles(&clean_bytes, 1);
        assert_eq!(middles.len(), 10, "8 data pieces and 2 shards, none empty");
        let damaged = |picks: &[usize]| {
            let mut bytes = clean_bytes.clone();
            for &k in picks {
                bytes[middles[k]] ^= 0x81;
            }
            bytes
        };
        for a in 0..middles.len() {
            for b in a + 1..middles.len() {
                let mut bytes = damaged(&[a, b]);
                let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
                for (i, want) in clean.iter().enumerate().take(16).skip(8) {
                    assert_eq!(&r.read_block(i).unwrap(), want, "pieces {a},{b}: block {i}");
                }
                let report = r.scrub().unwrap();
                assert_eq!(report.repairable(), report.damaged.len(), "pieces {a},{b}");
                report.heal(&mut bytes).unwrap();
                assert!(bytes == clean_bytes, "pieces {a},{b}: heal must be byte-identical");
            }
        }
        // Three: every block whose bytes were hit is refused and pinned
        // to itself; every other block still reads exact.
        let r = StoreReader::from_source(&clean_bytes[..], RetryPolicy::none()).unwrap();
        let spans: Vec<(usize, usize)> =
            r.index.blocks.iter().map(|b| (b.offset as usize, (b.offset + b.len) as usize)).collect();
        for a in 0..middles.len() {
            for b in a + 1..middles.len() {
                for c in b + 1..middles.len() {
                    let bytes = damaged(&[a, b, c]);
                    let r = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap();
                    for (i, &(from, to)) in spans.iter().enumerate().take(16).skip(8) {
                        let hit = [a, b, c].iter().any(|&k| (from..to).contains(&middles[k]));
                        match r.read_block(i) {
                            Ok(values) => {
                                assert!(!hit, "pieces {a},{b},{c}: block {i} served past the budget");
                                assert_eq!(values, clean[i]);
                            }
                            Err(StoreError::Checksum { block, .. }) => {
                                assert!(hit, "pieces {a},{b},{c}: intact block {i} refused");
                                assert_eq!(block, Some(i));
                            }
                            Err(e) => panic!("pieces {a},{b},{c}: block {i}: {e}"),
                        }
                    }
                    let report = r.scrub().unwrap();
                    assert_eq!(report.repairable(), 0, "pieces {a},{b},{c}");
                    assert_eq!(report.rebuildable_records(), 0, "pieces {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn index_flip_detected() {
        let geom = BlockGeometry::new(4, 4);
        let blocks: Vec<Vec<f64>> = (0..3).map(|b| patterned_block(geom, b)).collect();
        let (mut bytes, _) = store_bytes(geom, 1e-9, &blocks);
        // The index sits between the last commit and the index CRC; the
        // trailer says where. Flip a bit in its first entry.
        let at = bytes.len() - TRAILER_LEN as usize;
        let index_offset = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
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
        let (bytes, _) = store_bytes(geom, 1e-9, &blocks);
        // Claim ~10^15 blocks, or stripes; the index could never fit in the file, so
        // open() must fail on the bounds check (the trailer CRC also
        // breaks, but either way: no giant allocation).
        for at in [bytes.len() - 20, bytes.len() - 12] {
            let mut bytes = bytes.clone();
            bytes[at..at + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
            let err = StoreReader::from_source(&bytes[..], RetryPolicy::none()).unwrap_err();
            assert!(
                matches!(err, StoreError::Checksum { .. } | StoreError::Corrupt { .. }),
                "got {err:?}"
            );
        }
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
                                let (frame, repaired) = shared.read_frame_noting_repair(i).unwrap();
                                (i, pastri::decompress_block(&frame, geom, 1e-9).unwrap(), repaired)
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
