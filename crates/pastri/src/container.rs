//! The PaSTRI container format and the top-level [`Compressor`] API.
//!
//! Byte layout (version 2, the one the writer emits):
//!
//! ```text
//! magic            4 bytes  "PSTR"
//! version          1 byte   (= 2)
//! metric wire id   1 byte   (provenance; not needed to decode)
//! tree wire id     1 byte
//! error bound      8 bytes  f64 LE
//! num_subblocks    varint
//! subblock_size    varint
//! original_len     varint   (doubles, before tail padding)
//! num_blocks       varint
//! header_crc32     4 bytes  u32 LE  (CRC32 of every byte above)
//! blocks           num_blocks × { varint payload_bytes;
//!                                 payload_crc32 4 bytes u32 LE;
//!                                 payload }
//! ```
//!
//! This is the paper's container (Sec. IV-C): a header plus independent,
//! byte-aligned blocks. It carries no erasure code. One block's
//! `{ varint; crc32; payload }` is its *frame*:
//! [`Compressor::compress_block`] writes one alone and
//! [`decompress_blocks`] reads it back, so a block store (`eri-store`,
//! which owns the parity) and the PTRF wire keep each block as a frame
//! and state the geometry and error bound once.
//!
//! Two older layouts stay readable, for the golden fixtures under
//! `tests/golden/`, but nothing writes them:
//!
//! * Version 1 drops both CRC32 fields.
//! * Version 3 adds three header varints after `num_blocks` —
//!   `parity_group` (blocks per group), `parity_shards` (erasure shards
//!   per group) and `blocks_len` (bytes of the blocks section) — and
//!   ends with a parity section of `ceil(num_blocks / parity_group)`
//!   records:
//!
//!   ```text
//!   { varint record_len;       (bytes after this varint)
//!     varint group_offset;     (first frame, relative to the blocks
//!                               section start)
//!     varint × blocks-in-group payload lengths;
//!     meta_crc32 4 bytes;      (over everything above)
//!     parity_shards × shard_crc32 4 bytes;
//!     parity_shards × shard    (len = max payload len) }
//!   ```
//!
//!   Decoding checks every record's CRCs and lengths and
//!   reconstructs nothing: damage anywhere in the parity section is an
//!   error, like damage to a block.
//!
//! Each block payload is byte-aligned and self-contained, which is what
//! makes PaSTRI "highly parallelizable … each block compressed and
//! decompressed completely independent from each other" (paper
//! Sec. IV-C): both directions fan blocks out across threads with rayon.
//! The per-block CRC32 exploits the same independence for *integrity*:
//! a flipped bit is pinned to one block, and decoding reports exactly
//! which block (and byte offset) failed.

use bitio::BitWriter;
use checksum::crc32;
use rayon::prelude::*;

use crate::block::{self, BlockJob};
use crate::encoding::EncodingTree;
use crate::error::DecompressError;
use crate::geometry::BlockGeometry;
use crate::metrics::ScalingMetric;
use crate::quant::Quantizer;
use crate::simd::{self, Simd};

pub(crate) const MAGIC: [u8; 4] = *b"PSTR";
/// Read-only container version with a parity section.
pub(crate) const VERSION_V3: u8 = 3;
/// The checksummed, parity-free version every [`Compressor`] writes.
pub(crate) const VERSION_V2: u8 = 2;
/// Legacy checksum-free container version (still decodable).
pub(crate) const VERSION_V1: u8 = 1;

/// How many bits quantize the scaling coefficients (paper Sec. IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleRule {
    /// The paper's practical rule: `S_b = P_b`. Bounds the extra ECQ cost
    /// to two bins while keeping the scale stream small.
    #[default]
    Practical,
    /// The naive alternative the paper argues against: scale bins of
    /// `2·EB` width (`S_binsize = 2·EB`), which costs ~33 bits per scale
    /// at EB = 1e-10. Exists for the ablation benchmark.
    NaiveEbBins,
}

/// Which ECQ representation blocks may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcqRepr {
    /// Per-block cost comparison picks dense or sparse (the paper's
    /// "adaptive behavior").
    #[default]
    Auto,
    /// Always the tree-encoded dense stream (ablation).
    DenseOnly,
    /// Always the (index, value) outlier list (ablation).
    SparseOnly,
}

/// Tuning knobs beyond geometry and error bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressorOptions {
    /// Pattern-scaling metric (default ER, the paper's winner).
    pub metric: ScalingMetric,
    /// ECQ encoding tree (default Tree 5, the paper's winner).
    pub tree: EncodingTree,
    /// Scale-coefficient bit-width rule (default: practical `S_b = P_b`).
    pub scale_rule: ScaleRule,
    /// ECQ representation policy (default: adaptive).
    pub ecq_repr: EcqRepr,
}

/// The PaSTRI compressor for one block geometry and error bound.
#[derive(Debug, Clone, Copy)]
pub struct Compressor {
    geometry: BlockGeometry,
    quant: Quantizer,
    options: CompressorOptions,
}

impl Compressor {
    /// Compressor with default options (ER metric, Tree 5).
    #[must_use]
    pub fn new(geometry: BlockGeometry, eb: f64) -> Self {
        Self::with_options(geometry, eb, CompressorOptions::default())
    }

    /// Compressor with explicit metric/tree choices.
    #[must_use]
    pub fn with_options(geometry: BlockGeometry, eb: f64, options: CompressorOptions) -> Self {
        Self {
            geometry,
            quant: Quantizer::new(eb),
            options,
        }
    }

    /// The block geometry this compressor splits streams into.
    #[must_use]
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    /// The absolute error bound.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        self.quant.eb()
    }

    /// Compresses a stream of doubles. The final partial block (if any) is
    /// zero-padded, mirroring the paper's screened-element handling; the
    /// original length is recorded so decompression restores it exactly.
    #[must_use]
    pub fn compress(&self, data: &[f64]) -> Vec<u8> {
        let _span = telemetry::span("compress.container");
        let bs = self.geometry.block_size();
        let num_blocks = self.geometry.blocks_for_len(data.len());

        // Per-block frames in parallel; the tail block is padded.
        let frames: Vec<Vec<u8>> = (0..num_blocks)
            .into_par_iter()
            .map(|b| {
                let start = b * bs;
                let end = ((b + 1) * bs).min(data.len());
                // The next block loads while this one is coded.
                simd::prefetch(&data[end..((b + 2) * bs).min(data.len())]);
                if end - start == bs {
                    self.compress_block(&data[start..end])
                } else {
                    let mut padded = vec![0.0f64; bs];
                    padded[..end - start].copy_from_slice(&data[start..end]);
                    self.compress_block(&padded)
                }
            })
            .collect();

        let _assemble_span = telemetry::span("container.assemble");
        self.assemble_container(data.len(), &frames)
    }

    /// Compresses one full block into its frame: the bytes a v2
    /// container holds for it after the header (payload length varint,
    /// payload CRC32 u32 LE, payload). The one frame writer, behind both
    /// [`Compressor::compress`] and the block store; [`decompress_blocks`]
    /// reads frames back.
    ///
    /// # Panics
    /// If `values.len()` is not the geometry's block size.
    #[must_use]
    pub fn compress_block(&self, values: &[f64]) -> Vec<u8> {
        let _span = telemetry::span("compress.block");
        // A byte per value holds all but the least compressible blocks
        // without regrowing.
        let mut w = BitWriter::with_capacity(values.len());
        block::compress_block(values, &self.geometry, &self.quant, &self.options, &mut w);
        let payload = w.into_bytes();
        let mut frame = Vec::with_capacity(varint_len(payload.len() as u64) + 4 + payload.len());
        write_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// The complete v2 container — header and block frames — of the
    /// per-block `frames`.
    fn assemble_container(&self, data_len: usize, frames: &[Vec<u8>]) -> Vec<u8> {
        let header_varints = [
            self.geometry.num_subblocks,
            self.geometry.subblock_size,
            data_len,
            frames.len(),
        ];
        // Reserve the exact length so `out` never regrows mid-write.
        let header_len = MAGIC.len()
            + 3
            + 8
            + header_varints
                .iter()
                .map(|&v| varint_len(v as u64))
                .sum::<usize>()
            + 4;
        let blocks_len: usize = frames.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(header_len + blocks_len);

        out.extend_from_slice(&MAGIC);
        out.push(VERSION_V2);
        out.push(self.options.metric.wire_id());
        out.push(self.options.tree.wire_id());
        out.extend_from_slice(&self.quant.eb().to_le_bytes());
        for v in header_varints {
            write_varint(&mut out, v as u64);
        }
        checksum::append_crc32_of(&mut out);

        for f in frames {
            out.extend_from_slice(f);
        }
        debug_assert_eq!(out.len(), header_len + blocks_len);
        out
    }

    /// Decompresses a PaSTRI container produced by any [`Compressor`];
    /// geometry, error bound, and tree are read from the header.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, DecompressError> {
        decompress(bytes)
    }
}

/// Decompresses a PaSTRI container (self-describing; no configuration
/// needed).
///
/// Strict: the first damaged block aborts the decode, and the error
/// carries that block's index and byte offset. A v3 container's parity
/// section is checked, never used.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f64>, DecompressError> {
    let _span = telemetry::span("decompress.container");
    let Walked { header, frames, .. } = walk_container(bytes)?;
    let geometry = header.geometry;
    let bs = geometry.block_size();
    let tree = header.tree;

    let quant = Quantizer::new(header.eb);
    let simd = Simd::detect();
    let mut out = vec![0.0; header.num_blocks * bs];
    out.par_chunks_mut(GROUP * bs)
        .zip(frames.par_chunks(GROUP))
        .enumerate()
        .try_for_each(|(g, (chunk, frames))| {
            let mut jobs: Vec<BlockJob<'_>> = chunk
                .chunks_mut(bs)
                .zip(frames)
                .map(|(values, frame)| BlockJob::new(frame.payload, tree, values))
                .collect();
            simd.decompress_blocks(&mut jobs, &geometry, &quant);
            // The batch's first failure, as a block-by-block decode
            // would meet it.
            jobs.into_iter().zip(frames).enumerate().try_for_each(|(j, (job, frame))| {
                job.result
                    .map_err(|e| e.with_block(g * GROUP + j).at_offset(frame.offset))
            })
        })?;
    out.truncate(header.original_len);
    Ok(out)
}

/// The largest frame [`Compressor::compress_block`] can write for one
/// block of `geometry`: its length varint and CRC, and the verbatim payload of
/// `3 + 64·V` bits that bounds every block kind (a coded block that
/// would not be smaller is written verbatim). Saturates rather than
/// overflowing, so a hostile geometry sizes to `usize::MAX`, never to a
/// wrapped small number.
#[must_use]
pub fn max_frame_len(geometry: BlockGeometry) -> usize {
    let values = geometry.num_subblocks.saturating_mul(geometry.subblock_size);
    let payload = values.saturating_mul(8).saturating_add(1);
    (varint_len(payload as u64) + 4).saturating_add(payload)
}

/// The byte length (saturating) of the frame that starts `bytes`, read
/// from its length varint alone, so a reader can size a frame before
/// reading it. An error when the varint is cut short, overflows or
/// declares an empty payload.
pub fn frame_len(bytes: &[u8]) -> Result<u64, DecompressError> {
    let mut pos = 0;
    let len = read_varint(bytes, &mut pos)?;
    if len == 0 {
        return Err(DecompressError::corrupt("empty block payload"));
    }
    Ok(len.saturating_add(pos as u64 + 4))
}

/// The payload of `bytes`, which must be exactly one frame — no byte
/// missing, none after it — whose CRC32 verifies. Nothing is decoded.
pub fn check_frame(bytes: &[u8]) -> Result<&[u8], DecompressError> {
    let mut pos = 0;
    let frame = next_frame(bytes, &mut pos, true).map_err(|e| e.with_block(0))?;
    if pos != bytes.len() {
        return Err(DecompressError::corrupt("trailing bytes after frame").at_offset(pos as u64));
    }
    Ok(frame.payload)
}

/// Decodes one block from its frame: the frame must pass
/// [`check_frame`], and its payload decodes as Tree 5 at the caller's
/// `geometry` and `eb`, which a frame does not record. Allocates at most
/// one block of values, whatever the bytes. A batch of one of
/// [`decompress_blocks`].
///
/// # Panics
/// If `eb` is not finite and positive and the frame checks out.
pub fn decompress_block(
    frame: &[u8],
    geometry: BlockGeometry,
    eb: f64,
) -> Result<Vec<f64>, DecompressError> {
    decompress_blocks(&[frame], geometry, eb)
        .pop()
        .expect("one result per frame")
}

/// [`decompress_block`] of every frame in `frames`, each result at its
/// frame's position. Every frame is checked before any value buffer is
/// allocated, so `k` hostile frames cost at most `k` blocks' values.
/// One bad frame costs only its own slot.
///
/// The blocks decode in batches of 16, which pair their Dense streams;
/// a call of more than one batch spreads them over the rayon crew, and
/// a single batch decodes on the calling thread.
///
/// # Panics
/// If `eb` is not finite and positive and some frame checks out.
pub fn decompress_blocks(
    frames: &[&[u8]],
    geometry: BlockGeometry,
    eb: f64,
) -> Vec<Result<Vec<f64>, DecompressError>> {
    let _span = telemetry::span("decompress.container");
    let checked: Vec<_> = frames.iter().map(|bytes| check_frame(bytes)).collect();
    let bs = geometry.block_size();
    let mut values: Vec<Vec<f64>> = checked
        .iter()
        .map(|c| if c.is_ok() { vec![0.0; bs] } else { Vec::new() })
        .collect();
    let mut jobs: Vec<BlockJob<'_>> = checked
        .iter()
        .zip(&mut values)
        .filter_map(|(c, out)| Some(BlockJob::new(c.as_ref().ok()?, EncodingTree::Tree5, out)))
        .collect();
    if !jobs.is_empty() {
        let quant = Quantizer::new(eb);
        let simd = Simd::detect();
        jobs.par_chunks_mut(GROUP)
            .for_each(|group| simd.decompress_blocks(group, &geometry, &quant));
    }
    let mut decoded = jobs.into_iter().map(|job| job.result).collect::<Vec<_>>().into_iter();
    checked
        .into_iter()
        .zip(values)
        .map(|(c, v)| {
            c?;
            decoded
                .next()
                .expect("one decode per checked frame")
                .map_err(|e| e.with_block(0).at_offset(0))?;
            Ok(v)
        })
        .collect()
}

/// Blocks per batch of [`Simd::decompress_blocks`]: enough to pair the
/// Dense streams of every batch, whatever the thread count.
const GROUP: usize = 16;

/// Parsed, validated container header.
pub(crate) struct Header {
    pub(crate) version: u8,
    /// Scaling metric recorded at compression time (provenance; `None`
    /// for an id this build does not know).
    pub(crate) metric: Option<ScalingMetric>,
    pub(crate) tree: EncodingTree,
    pub(crate) eb: f64,
    pub(crate) geometry: BlockGeometry,
    pub(crate) original_len: usize,
    pub(crate) num_blocks: usize,
    /// Blocks per parity group (v3; 0 otherwise).
    pub(crate) parity_group: usize,
    /// Erasure shards per parity group (v3; 0 otherwise).
    pub(crate) parity_shards: usize,
    /// Declared byte length of the blocks section (v3; 0 otherwise).
    /// Locates the parity section even when block framing is damaged.
    pub(crate) blocks_len: usize,
    /// Byte offset of the first block's framing (just past the header and,
    /// for v2+, its CRC32).
    pub(crate) blocks_start: usize,
}

impl Header {
    pub(crate) fn has_checksums(&self) -> bool {
        self.version >= VERSION_V2
    }
}

pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header, DecompressError> {
    let mut pos = 0usize;
    let magic = bytes.get(..4).ok_or(DecompressError::Truncated)?;
    if magic != MAGIC {
        return Err(DecompressError::BadMagic { format: "container" });
    }
    pos += 4;
    let version = *bytes.get(pos).ok_or(DecompressError::Truncated)?;
    if version != VERSION_V3 && version != VERSION_V2 && version != VERSION_V1 {
        return Err(DecompressError::BadVersion {
            format: "container",
            version,
        });
    }
    pos += 1;
    let metric = ScalingMetric::from_wire_id(*bytes.get(pos).ok_or(DecompressError::Truncated)?);
    pos += 1;
    let tree_id = *bytes.get(pos).ok_or(DecompressError::Truncated)?;
    let tree = EncodingTree::from_wire_id(tree_id)
        .ok_or(DecompressError::corrupt("unknown encoding tree"))?;
    pos += 1;
    let eb_bytes: [u8; 8] = bytes
        .get(pos..pos + 8)
        .ok_or(DecompressError::Truncated)?
        .try_into()
        .unwrap();
    let eb = f64::from_le_bytes(eb_bytes);
    if !(eb.is_finite() && eb > 0.0) {
        return Err(DecompressError::corrupt("invalid error bound"));
    }
    pos += 8;
    let num_sb = read_varint(bytes, &mut pos)? as usize;
    let sb_size = read_varint(bytes, &mut pos)? as usize;
    if num_sb == 0 || sb_size == 0 || num_sb.saturating_mul(sb_size) > (1 << 28) {
        return Err(DecompressError::corrupt("implausible geometry"));
    }
    let original_len = read_varint(bytes, &mut pos)? as usize;
    let num_blocks = read_varint(bytes, &mut pos)? as usize;
    let (mut parity_group, mut parity_shards, mut blocks_len) = (0usize, 0usize, 0usize);
    if version >= VERSION_V3 {
        parity_group = read_varint(bytes, &mut pos)? as usize;
        parity_shards = read_varint(bytes, &mut pos)? as usize;
        blocks_len = read_varint(bytes, &mut pos)? as usize;
        if parity_group == 0
            || parity_shards == 0
            || parity_group.saturating_add(parity_shards) > 255
        {
            return Err(DecompressError::corrupt("implausible parity geometry"));
        }
    }
    let geometry = BlockGeometry::new(num_sb, sb_size);
    let bs = geometry.block_size();
    if num_blocks != geometry.blocks_for_len(original_len) {
        return Err(DecompressError::corrupt("block count mismatch"));
    }

    // Each block costs at least two bytes (length varint + payload), so a
    // valid block count is bounded by the container size — reject inflated
    // headers before any allocation sized by them.
    if num_blocks > bytes.len() {
        return Err(DecompressError::corrupt("block count exceeds container size"));
    }
    // In-memory decode ceiling (16 GiB of doubles). Larger datasets go
    // to block stores, which decode block by block.
    if num_blocks.saturating_mul(bs) > (1usize << 31) {
        return Err(DecompressError::corrupt("decoded size exceeds in-memory ceiling"));
    }

    if version >= VERSION_V2 {
        let crc_at = pos;
        let stored = read_u32(bytes, &mut pos)?;
        let actual = crc32(&bytes[..crc_at]);
        if stored != actual {
            return Err(DecompressError::ChecksumMismatch {
                block: None,
                offset: Some(crc_at as u64),
                expected: stored,
                actual,
            });
        }
    }

    Ok(Header {
        version,
        metric,
        tree,
        eb,
        geometry,
        original_len,
        num_blocks,
        parity_group,
        parity_shards,
        blocks_len,
        blocks_start: pos,
    })
}

/// One block's framing within a container: where it sits and its
/// payload bytes.
pub(crate) struct BlockFrame<'a> {
    /// Container byte offset of this block's length varint.
    pub(crate) offset: u64,
    pub(crate) payload: &'a [u8],
}

/// Reads the next block frame and, when `checksummed` (v2+), verifies
/// its payload CRC32. Validates the declared length against the
/// remaining input *before* any allocation or slicing, so a hostile
/// length field cannot trigger an oversized request.
pub(crate) fn next_frame<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    checksummed: bool,
) -> Result<BlockFrame<'a>, DecompressError> {
    let offset = *pos as u64;
    let len = read_varint(bytes, pos)
        .map_err(|e| e.at_offset(offset))? as usize;
    if len == 0 {
        return Err(DecompressError::corrupt("empty block payload").at_offset(offset));
    }
    let stored_crc = checksummed.then(|| read_u32(bytes, pos)).transpose()?;
    let payload = bytes
        .get(*pos..pos.checked_add(len).ok_or(DecompressError::Truncated)?)
        .ok_or(DecompressError::Truncated)?;
    *pos += len;
    if let Some(expected) = stored_crc {
        let actual = crc32(payload);
        if expected != actual {
            return Err(DecompressError::ChecksumMismatch {
                block: None,
                offset: Some(offset),
                expected,
                actual,
            });
        }
    }
    Ok(BlockFrame { offset, payload })
}

/// A container read end to end without decoding a value.
pub(crate) struct Walked<'a> {
    pub(crate) header: Header,
    /// Every block's frame, in block order.
    pub(crate) frames: Vec<BlockFrame<'a>>,
    /// Bytes of the v3 parity section; 0 for other versions.
    pub(crate) parity_bytes: usize,
}

/// Walks a whole container: the header, each block's frame (with its
/// CRC, for v2+), v3's declared blocks section length and its parity
/// section, and then the end of the input, which must be the end of the
/// last section. The one container walk: [`decompress`],
/// [`crate::inspect`] and [`crate::container_bit_stats`] all read
/// through it, so they refuse the same framing damage.
pub(crate) fn walk_container(bytes: &[u8]) -> Result<Walked<'_>, DecompressError> {
    let header = parse_header(bytes)?;
    let mut frames = Vec::with_capacity(header.num_blocks);
    let mut pos = header.blocks_start;
    for b in 0..header.num_blocks {
        let frame = next_frame(bytes, &mut pos, header.has_checksums());
        frames.push(frame.map_err(|e| e.with_block(b))?);
    }
    let blocks_end = pos;
    if header.version >= VERSION_V3 {
        if pos - header.blocks_start != header.blocks_len {
            return Err(
                DecompressError::corrupt("blocks section length mismatch").at_offset(pos as u64)
            );
        }
        // An intact parity section too, so a torn tail is an error,
        // not silence.
        check_parity_section(bytes, &header, &mut pos)?;
    }
    // Every version ends exactly where its last section does.
    if pos != bytes.len() {
        return Err(
            DecompressError::corrupt("trailing bytes after container").at_offset(pos as u64)
        );
    }
    Ok(Walked {
        header,
        frames,
        parity_bytes: pos - blocks_end,
    })
}

/// Walks the v3 parity section that starts at `pos`, leaving `pos` just
/// past it, and checks each record as it passes: the meta CRC over its
/// length, group offset and payload lengths, `record_len` against the
/// size those lengths give, and every shard's CRC. Nothing is
/// reconstructed, so any damage to the section is an error at the
/// offset of the record that holds it.
fn check_parity_section(
    bytes: &[u8],
    header: &Header,
    pos: &mut usize,
) -> Result<(), DecompressError> {
    let (group, shards) = (header.parity_group, header.parity_shards);
    for g in 0..header.num_blocks.div_ceil(group) {
        let record_start = *pos;
        let damaged = |reason| DecompressError::corrupt(reason).at_offset(record_start as u64);
        let record_len = read_varint(bytes, pos)? as usize;
        let body_start = *pos;
        let record_end = body_start
            .checked_add(record_len)
            .filter(|&end| end <= bytes.len())
            .ok_or(DecompressError::Truncated)?;
        let _group_offset = read_varint(bytes, pos)?;
        let mut shard_len = 0;
        for _ in 0..(header.num_blocks - g * group).min(group) {
            shard_len = shard_len.max(read_varint(bytes, pos)? as usize);
        }
        let meta_end = *pos;
        if crc32(&bytes[record_start..meta_end]) != read_u32(bytes, pos)? {
            return Err(damaged("parity record checksum mismatch"));
        }
        let expected_len = shard_len
            .checked_add(4)
            .and_then(|shard| shard.checked_mul(shards))
            .and_then(|parity| parity.checked_add(meta_end - body_start + 4));
        if expected_len != Some(record_len) {
            return Err(damaged("parity record length mismatch"));
        }
        let mut shard_at = *pos + 4 * shards;
        for _ in 0..shards {
            let stored = read_u32(bytes, pos)?;
            if crc32(&bytes[shard_at..shard_at + shard_len]) != stored {
                return Err(damaged("parity shard checksum mismatch"));
            }
            shard_at += shard_len;
        }
        debug_assert_eq!(shard_at, record_end);
        *pos = record_end;
    }
    Ok(())
}

/// Reads a little-endian `u32` at `pos` and steps past it.
fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, DecompressError> {
    let word = bytes.get(*pos..*pos + 4).ok_or(DecompressError::Truncated)?;
    *pos += 4;
    Ok(u32::from_le_bytes(word.try_into().unwrap()))
}

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn varint_len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros().min(63);
    (bits as usize).div_ceil(7).max(1)
}

pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecompressError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or(DecompressError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(DecompressError::corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecompressError::corrupt("varint overflow"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden v3 container: five 9×9 blocks in one parity group of
    /// two shards.
    const GOLDEN_V3: &[u8] = include_bytes!("../../../tests/golden/v3_container.pastri");

    fn patterned_stream(blocks: usize, geom: BlockGeometry) -> Vec<f64> {
        let mut data = Vec::new();
        for b in 0..blocks {
            let pat: Vec<f64> = (0..geom.subblock_size)
                .map(|i| ((i as f64 + b as f64) * 0.37).sin() * 1e-6)
                .collect();
            for j in 0..geom.num_subblocks {
                let s = ((j + b) as f64 * 0.61).cos();
                data.extend(pat.iter().map(|p| p * s));
            }
        }
        data
    }

    /// Rewrites a v2 container as the checksum-free v1 layout — the exact
    /// bytes the pre-v2 encoder produced. Lets every test exercise the
    /// legacy decode path without golden files.
    fn strip_to_v1(v2: &[u8]) -> Vec<u8> {
        let header = parse_header(v2).expect("valid v2 container");
        assert_eq!(header.version, VERSION_V2);
        let mut out = Vec::with_capacity(v2.len());
        // Header minus its trailing CRC32, with the version byte rewritten.
        out.extend_from_slice(&v2[..header.blocks_start - 4]);
        out[4] = VERSION_V1;
        let mut pos = header.blocks_start;
        for _ in 0..header.num_blocks {
            let frame = next_frame(v2, &mut pos, true).expect("valid v2 frame");
            write_varint(&mut out, frame.payload.len() as u64);
            out.extend_from_slice(frame.payload);
        }
        out
    }

    #[test]
    fn roundtrip_multi_block() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = Compressor::new(geom, 1e-10);
        let data = patterned_stream(5, geom);
        let bytes = c.compress(&data);
        let back = c.decompress(&bytes).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-10);
        }
    }

    #[test]
    fn roundtrip_partial_tail_block() {
        let geom = BlockGeometry::new(4, 9); // block = 36
        let c = Compressor::new(geom, 1e-9);
        for len in [0usize, 1, 35, 36, 37, 71, 100] {
            let data: Vec<f64> = (0..len).map(|i| (i as f64 * 0.1).sin() * 1e-5).collect();
            let bytes = c.compress(&data);
            let back = c.decompress(&bytes).unwrap();
            assert_eq!(back.len(), len, "len={len}");
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-9);
            }
        }
    }

    #[test]
    fn stats_accounting_consistent() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = Compressor::new(geom, 1e-10);
        let data = patterned_stream(8, geom);
        let bytes = c.compress(&data);
        let stats = crate::container_bit_stats(&bytes).unwrap();
        assert_eq!(stats.blocks, 8);
        assert_eq!(stats.compressed_bytes, bytes.len() as u64);
        assert_eq!(stats.original_bytes, (data.len() * 8) as u64);
        // Every accounted bit category sums to the container size
        // (up to per-block byte-alignment padding, < 1 byte per block).
        let accounted = stats.header_bits
            + stats.pq_bits
            + stats.sq_bits
            + stats.ecq_bits
            + stats.verbatim_bits
            + stats.container_bits;
        let total_bits = bytes.len() as u64 * 8;
        assert!(accounted <= total_bits);
        assert!(total_bits - accounted < 8 * stats.blocks);
        assert!(stats.compression_ratio() > 4.0, "CR {}", stats.compression_ratio());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            decompress(b"nope").unwrap_err(),
            DecompressError::BadMagic { format: "container" }
        );
        assert_eq!(decompress(b"PS").unwrap_err(), DecompressError::Truncated);
        let geom = BlockGeometry::new(2, 2);
        let c = Compressor::new(geom, 1e-10);
        let mut bytes = c.compress(&[1e-6, 2e-6, 3e-6, 4e-6]);
        bytes[4] = 99; // bad version
        assert!(matches!(
            decompress(&bytes).unwrap_err(),
            DecompressError::BadVersion { format: "container", version: 99 }
        ));
    }

    #[test]
    fn truncation_detected() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = Compressor::new(geom, 1e-10);
        let data = patterned_stream(3, geom);
        let bytes = c.compress(&data);
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn empty_input() {
        let geom = BlockGeometry::new(2, 3);
        let c = Compressor::new(geom, 1e-8);
        let bytes = c.compress(&[]);
        let back = c.decompress(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn header_records_options() {
        let geom = BlockGeometry::new(2, 3);
        let opts = CompressorOptions {
            metric: ScalingMetric::Aar,
            tree: EncodingTree::Tree2,
            ..Default::default()
        };
        let c = Compressor::with_options(geom, 1e-8, opts);
        let bytes = c.compress(&[1e-5; 12]);
        assert_eq!(bytes[5], ScalingMetric::Aar.wire_id());
        assert_eq!(bytes[6], EncodingTree::Tree2.wire_id());
        // Decoding uses the header tree, not the caller's.
        let back = decompress(&bytes).unwrap();
        for v in back {
            assert!((v - 1e-5).abs() <= 1e-8);
        }
    }

    #[test]
    fn varint_len_matches_write() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "v={v}");
        }
    }

    #[test]
    fn writes_v2_with_valid_checksums() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let bytes = c.compress(&patterned_stream(3, geom));
        assert_eq!(bytes[4], VERSION_V2);
        let walk = walk_container(&bytes).unwrap();
        assert!(walk.header.has_checksums());
        assert_eq!((walk.header.parity_shards, walk.parity_bytes), (0, 0));
        assert_eq!(walk.frames.len(), 3);
    }

    #[test]
    fn strict_decode_rejects_trailing_bytes() {
        let geom = BlockGeometry::new(2, 4);
        let v2 = Compressor::new(geom, 1e-9).compress(&patterned_stream(3, geom));
        for container in [strip_to_v1(&v2), v2.clone(), GOLDEN_V3.to_vec()] {
            decompress(&container).unwrap();
            let mut padded = container.clone();
            padded.extend_from_slice(b"garbage");
            assert_eq!(
                decompress(&padded).unwrap_err(),
                DecompressError::corrupt("trailing bytes after container")
                    .at_offset(container.len() as u64),
                "version {}",
                container[4]
            );
        }
    }

    /// Nothing repairs a v3 container, so its parity section must not
    /// hide damage: every single-byte flip after the header, in a frame,
    /// a payload or a parity record, fails the strict decode.
    #[test]
    fn every_v3_body_byte_flip_fails_strict_decode() {
        let header = parse_header(GOLDEN_V3).unwrap();
        let mut damaged = GOLDEN_V3.to_vec();
        for at in header.blocks_start..GOLDEN_V3.len() {
            damaged[at] ^= 0x40;
            assert!(decompress(&damaged).is_err(), "flip at byte {at} decoded");
            damaged[at] ^= 0x40;
        }
    }

    /// The compressor has not drifted from the golden v3 container: its
    /// header records the error bound and geometry today's v2 writer
    /// records for the fixture's original, and each block payload equals
    /// today's byte for byte.
    #[test]
    fn golden_v3_fixture_matches_current_writer() {
        let original: Vec<f64> = include_bytes!("../../../tests/golden/v1_original.f64")
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let v2 = Compressor::new(BlockGeometry::new(9, 9), 1e-10).compress(&original);
        let blocks = |bytes: &[u8]| {
            let Walked { header, frames, .. } = walk_container(bytes).unwrap();
            let payloads: Vec<Vec<u8>> = frames.iter().map(|f| f.payload.to_vec()).collect();
            (header.eb.to_bits(), header.geometry, header.original_len, payloads)
        };
        let (v3, now) = (blocks(GOLDEN_V3), blocks(&v2));
        assert_eq!(v3.3.len(), 5);
        assert_eq!(v3, now, "the compressor's bytes drifted from the golden v3 container");
    }

    /// Each parity check names its record: a flip in the metadata, a
    /// flip in a shard, and a `record_len` that disagrees with the
    /// metadata under a recomputed meta CRC.
    #[test]
    fn parity_damage_is_reported_at_its_record() {
        let header = parse_header(GOLDEN_V3).unwrap();
        let start = header.blocks_start + header.blocks_len;
        let at_record = |reason| Err(DecompressError::corrupt(reason).at_offset(start as u64));
        let flipped = |at: usize| {
            let mut bytes = GOLDEN_V3.to_vec();
            bytes[at] ^= 0x01;
            decompress(&bytes)
        };
        assert_eq!(flipped(start + 3), at_record("parity record checksum mismatch"));
        assert_eq!(flipped(GOLDEN_V3.len() - 1), at_record("parity shard checksum mismatch"));

        // One record (five blocks, groups of eight): claim one byte less.
        let mut pos = start;
        let record_len = read_varint(GOLDEN_V3, &mut pos).unwrap();
        let mut shorter = Vec::new();
        write_varint(&mut shorter, record_len - 1);
        assert_eq!(shorter.len(), pos - start, "same varint width");
        let mut meta_end = pos;
        for _ in 0..=header.num_blocks {
            read_varint(GOLDEN_V3, &mut meta_end).unwrap();
        }
        let mut bytes = GOLDEN_V3.to_vec();
        bytes[start..pos].copy_from_slice(&shorter);
        let meta_crc = crc32(&bytes[start..meta_end]).to_le_bytes();
        bytes[meta_end..meta_end + 4].copy_from_slice(&meta_crc);
        assert_eq!(decompress(&bytes), at_record("parity record length mismatch"));

        // A payload length no record could hold, under a valid meta
        // CRC: refused, never an overflow.
        let mut hostile = GOLDEN_V3[..start].to_vec();
        let mut meta = Vec::new();
        for v in [0, u64::MAX >> 1, 1, 1, 1, 1] {
            write_varint(&mut meta, v);
        }
        write_varint(&mut hostile, meta.len() as u64 + 4);
        hostile.extend_from_slice(&meta);
        let meta_crc = crc32(&hostile[start..]).to_le_bytes();
        hostile.extend_from_slice(&meta_crc);
        assert_eq!(decompress(&hostile), at_record("parity record length mismatch"));
    }

    /// A parity section cut short anywhere is `Truncated`.
    #[test]
    fn strict_decode_rejects_a_torn_parity_tail() {
        let header = parse_header(GOLDEN_V3).unwrap();
        let parity_start = header.blocks_start + header.blocks_len;
        for cut in [parity_start, parity_start + 3, GOLDEN_V3.len() - 1] {
            assert_eq!(
                decompress(&GOLDEN_V3[..cut]),
                Err(DecompressError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn v1_containers_still_decode() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = Compressor::new(geom, 1e-10);
        let data = patterned_stream(4, geom);
        let v2 = c.compress(&data);
        let v1 = strip_to_v1(&v2);
        assert_eq!(v1[4], VERSION_V1);
        assert!(v1.len() < v2.len());
        let back = decompress(&v1).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-10);
        }
    }

    #[test]
    fn payload_flip_pinpoints_block() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let data = patterned_stream(6, geom);
        let bytes = c.compress(&data);
        let header = parse_header(&bytes).unwrap();
        // Locate block 3's payload and flip one bit in its middle.
        let mut pos = header.blocks_start;
        let mut target = None;
        for b in 0..header.num_blocks {
            let before = pos;
            let frame = next_frame(&bytes, &mut pos, true).unwrap();
            if b == 3 {
                target = Some((before as u64, pos - frame.payload.len() / 2));
            }
        }
        let (frame_offset, flip_at) = target.unwrap();
        let mut damaged = bytes.clone();
        damaged[flip_at] ^= 0x10;
        match decompress(&damaged).unwrap_err() {
            DecompressError::ChecksumMismatch { block, offset, .. } => {
                assert_eq!(block, Some(3));
                assert_eq!(offset, Some(frame_offset));
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_flip_detected() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let mut bytes = c.compress(&patterned_stream(2, geom));
        bytes[12] ^= 0x01; // inside the error-bound field
        let err = decompress(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                DecompressError::ChecksumMismatch { block: None, .. }
                    | DecompressError::Corrupt { .. }
            ),
            "got {err:?}"
        );
    }
}
