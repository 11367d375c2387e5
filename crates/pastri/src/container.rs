//! The PaSTRI container format and the top-level [`Compressor`] API.
//!
//! Byte layout (version 3, current):
//!
//! ```text
//! magic            4 bytes  "PSTR"
//! version          1 byte   (= 3)
//! metric wire id   1 byte   (provenance; not needed to decode)
//! tree wire id     1 byte
//! error bound      8 bytes  f64 LE
//! num_subblocks    varint
//! subblock_size    varint
//! original_len     varint   (doubles, before tail padding)
//! num_blocks       varint
//! parity_group     varint   (blocks per parity group)
//! parity_shards    varint   (erasure shards per group)
//! blocks_len       varint   (total bytes of the blocks section)
//! header_crc32     4 bytes  u32 LE  (CRC32 of every byte above)
//! blocks           num_blocks × { varint payload_bytes;
//!                                 payload_crc32 4 bytes u32 LE;
//!                                 payload }
//! parity records   ceil(num_blocks / parity_group) ×
//!                  { varint record_len;       (bytes after this varint)
//!                    varint group_offset;     (first frame, relative to
//!                                              the blocks section start)
//!                    varint × blocks-in-group payload lengths;
//!                    meta_crc32 4 bytes;      (over everything above)
//!                    parity_shards × shard_crc32 4 bytes;
//!                    parity_shards × shard    (len = max payload len) }
//! ```
//!
//! Version 2 is the same layout minus the three parity header varints and
//! the parity section; version 1 further drops both CRC32 fields. The
//! decoder keeps both paths alive behind the version byte, so pre-v3
//! archives remain readable, and [`ParityConfig::NONE`] still *writes*
//! byte-identical v2 containers for callers that want zero overhead.
//!
//! Each block payload is byte-aligned and self-contained, which is what
//! makes PaSTRI "highly parallelizable … each block compressed and
//! decompressed completely independent from each other" (paper
//! Sec. IV-C): both directions fan blocks out across threads with rayon.
//! The per-block CRC32 exploits the same independence for *integrity*:
//! a flipped bit is pinned to one block, strict decoding reports exactly
//! which block (and byte offset) failed, and [`decompress_lossy`]
//! recovers every other block.
//!
//! The v3 parity section turns detection into **repair**: every group of
//! `parity_group` blocks carries `parity_shards` GF(256) Reed–Solomon
//! erasure shards (see the `parity` crate), so up to `parity_shards`
//! damaged blocks per group reconstruct byte-exactly. The record also
//! duplicates each block's payload length and the group's absolute
//! offset, CRC-protected — framing damage (a corrupted length varint,
//! which pre-v3 lost every later block) is now repaired from the
//! duplicate lengths, and each group re-anchors independently. See
//! [`crate::repair_container`].

use bitio::{BitReader, BitWriter};
use checksum::crc32;
use rayon::prelude::*;

use crate::block::{compress_block, decompress_block};
use crate::encoding::EncodingTree;
use crate::error::DecompressError;
use crate::geometry::BlockGeometry;
use crate::metrics::ScalingMetric;
use crate::quant::Quantizer;
use crate::stats::CompressionStats;

pub(crate) const MAGIC: [u8; 4] = *b"PSTR";
/// Current container version with a parity section (default writes).
pub(crate) const VERSION_V3: u8 = 3;
/// Checksummed, parity-free container version (written by
/// [`ParityConfig::NONE`]; still decodable).
pub(crate) const VERSION_V2: u8 = 2;
/// Legacy checksum-free container version (still decodable).
pub(crate) const VERSION_V1: u8 = 1;

/// Forward-error-correction configuration: how blocks are grouped and
/// how many GF(256) Reed–Solomon erasure shards protect each group.
///
/// The trade-off is overhead versus blast radius: `parity_shards` of
/// parity per `group_size` blocks costs roughly
/// `parity_shards / group_size` of the compressed size (shards are as
/// long as the group's largest payload) and repairs up to
/// `parity_shards` damaged blocks per group. The default — 2 shards per
/// 8 blocks — survives any double-fault per group for ~25% overhead on
/// top of PaSTRI's ~10–16× compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityConfig {
    /// Blocks per parity group (last group may be smaller).
    pub group_size: usize,
    /// Erasure shards per group; `0` disables parity and writes the
    /// v2 container layout byte-identically.
    pub parity_shards: usize,
}

impl ParityConfig {
    /// No parity: writes the pre-v3 (v2) container layout exactly.
    pub const NONE: ParityConfig = ParityConfig {
        group_size: 8,
        parity_shards: 0,
    };

    /// Is this configuration encodable? GF(256) limits a group plus its
    /// shards to 255 total.
    #[must_use]
    pub(crate) fn is_valid(&self) -> bool {
        self.group_size >= 1 && self.group_size + self.parity_shards <= 255
    }

    /// Does this configuration emit a parity section?
    #[must_use]
    pub(crate) fn enabled(&self) -> bool {
        self.parity_shards > 0
    }
}

impl Default for ParityConfig {
    fn default() -> Self {
        ParityConfig {
            group_size: 8,
            parity_shards: 2,
        }
    }
}

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
    /// Forward-error-correction layout (default: 2 erasure shards per
    /// 8-block group; [`ParityConfig::NONE`] writes parity-free v2).
    pub parity: ParityConfig,
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
        assert!(
            options.parity.is_valid(),
            "parity group + shards must fit GF(256): group {} + shards {} > 255",
            options.parity.group_size,
            options.parity.parity_shards
        );
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
        self.compress_impl(data, None)
    }

    /// Like [`compress`](Self::compress), also returning statistics.
    #[must_use]
    pub fn compress_with_stats(&self, data: &[f64]) -> (Vec<u8>, CompressionStats) {
        let mut stats = CompressionStats::default();
        let out = self.compress_impl(data, Some(&mut stats));
        stats.compressed_bytes = out.len() as u64;
        stats.original_bytes = (data.len() * 8) as u64;
        (out, stats)
    }

    /// Shared body of [`compress`](Self::compress) and
    /// [`compress_with_stats`](Self::compress_with_stats). Per-block
    /// statistics are gathered only when `stats` is given: plain
    /// compression does not pay for the accounting.
    fn compress_impl(&self, data: &[f64], stats: Option<&mut CompressionStats>) -> Vec<u8> {
        let _span = telemetry::span("compress.container");
        let bs = self.geometry.block_size();
        let num_blocks = self.geometry.blocks_for_len(data.len());
        let want_stats = stats.is_some();

        // Per-block payloads in parallel; the tail block is padded.
        let results: Vec<(Vec<u8>, Option<Box<CompressionStats>>)> = (0..num_blocks)
            .into_par_iter()
            .map(|b| {
                let _block_span = telemetry::span("compress.block");
                let start = b * bs;
                let end = ((b + 1) * bs).min(data.len());
                let mut local = want_stats.then(Box::<CompressionStats>::default);
                let mut w = BitWriter::new();
                if end - start == bs {
                    compress_block(
                        &data[start..end],
                        &self.geometry,
                        &self.quant,
                        &self.options,
                        &mut w,
                        local.as_deref_mut(),
                    );
                } else {
                    let mut padded = vec![0.0f64; bs];
                    padded[..end - start].copy_from_slice(&data[start..end]);
                    compress_block(
                        &padded,
                        &self.geometry,
                        &self.quant,
                        &self.options,
                        &mut w,
                        local.as_deref_mut(),
                    );
                }
                (w.into_bytes(), local)
            })
            .collect();

        // Assemble the container.
        let mut out = Vec::with_capacity(32 + results.iter().map(|(p, _)| p.len() + 9).sum::<usize>());
        let payloads: Vec<&[u8]> = results.iter().map(|(p, _)| p.as_slice()).collect();
        let assemble_span = telemetry::span("container.assemble");
        let overhead = self.assemble_container(&mut out, data.len(), &payloads);
        drop(assemble_span);
        if let Some(s) = stats {
            for local in results.iter().filter_map(|(_, l)| l.as_deref()) {
                s.merge(local);
            }
            // Everything that is not block payload — header, framing,
            // and the parity section — is container overhead.
            s.record_container_bits(overhead as u64 * 8);
        }
        out
    }

    /// Writes the complete container — header, framed blocks, and (for
    /// parity-enabled options) the parity section — into `out` from the
    /// per-block compressed `payloads`. Returns the non-payload byte
    /// count (header + framing + parity section).
    fn assemble_container(&self, out: &mut Vec<u8>, data_len: usize, payloads: &[&[u8]]) -> usize {
        let num_blocks = payloads.len();
        let parity = self.options.parity;
        let with_parity = parity.enabled();
        let blocks_len: usize = payloads
            .iter()
            .map(|p| varint_len(p.len() as u64) + 4 + p.len())
            .sum();

        out.extend_from_slice(&MAGIC);
        out.push(if with_parity { VERSION_V3 } else { VERSION_V2 });
        out.push(self.options.metric.wire_id());
        out.push(self.options.tree.wire_id());
        out.extend_from_slice(&self.quant.eb().to_le_bytes());
        write_varint(out, self.geometry.num_subblocks as u64);
        write_varint(out, self.geometry.subblock_size as u64);
        write_varint(out, data_len as u64);
        write_varint(out, num_blocks as u64);
        if with_parity {
            write_varint(out, parity.group_size as u64);
            write_varint(out, parity.parity_shards as u64);
            write_varint(out, blocks_len as u64);
        }
        checksum::append_crc32_of(out);

        for p in payloads {
            write_varint(out, p.len() as u64);
            out.extend_from_slice(&crc32(p).to_le_bytes());
            out.extend_from_slice(p);
        }
        if with_parity {
            let mut group_offset = 0u64;
            for group in payloads.chunks(parity.group_size) {
                write_parity_record(out, group, group_offset, parity.parity_shards);
                group_offset += group
                    .iter()
                    .map(|p| (varint_len(p.len() as u64) + 4 + p.len()) as u64)
                    .sum::<u64>();
            }
        }
        out.len() - payloads.iter().map(|p| p.len()).sum::<usize>()
    }

    /// Decompresses a PaSTRI container produced by any [`Compressor`];
    /// geometry, error bound, and tree are read from the header.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, DecompressError> {
        decompress(bytes)
    }
}

/// Decompresses a PaSTRI container (self-describing; no configuration
/// needed).
pub fn decompress(bytes: &[u8]) -> Result<Vec<f64>, DecompressError> {
    let mut out = Vec::new();
    decompress_into(bytes, &mut out)?;
    Ok(out)
}

/// One complete parity record as assembled by the writer: the canonical
/// byte encoding for the group covering `payloads`, starting
/// `group_offset` bytes into the blocks section. `pub(crate)` so the
/// repair path can re-emit records byte-identically.
pub(crate) fn write_parity_record(
    out: &mut Vec<u8>,
    payloads: &[&[u8]],
    group_offset: u64,
    parity_shards: usize,
) {
    let shard_len = payloads.iter().map(|p| p.len()).max().unwrap_or(0);
    let mut meta = Vec::new();
    write_varint(&mut meta, group_offset);
    for p in payloads {
        write_varint(&mut meta, p.len() as u64);
    }
    let record_len = meta.len() + 4 + parity_shards * 4 + parity_shards * shard_len;
    let record_start = out.len();
    write_varint(out, record_len as u64);
    out.extend_from_slice(&meta);
    let meta_crc = crc32(&out[record_start..]);
    out.extend_from_slice(&meta_crc.to_le_bytes());

    let rs = parity::ReedSolomon::new(payloads.len(), parity_shards)
        .expect("parity config validated at construction");
    let padded: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| {
            let mut v = p.to_vec();
            v.resize(shard_len, 0);
            v
        })
        .collect();
    let refs: Vec<&[u8]> = padded.iter().map(Vec::as_slice).collect();
    let shards = rs.encode(&refs).expect("shards padded to equal length");
    for s in &shards {
        out.extend_from_slice(&crc32(s).to_le_bytes());
    }
    for s in &shards {
        out.extend_from_slice(s);
    }
}

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

    pub(crate) fn has_parity(&self) -> bool {
        self.version >= VERSION_V3 && self.parity_shards > 0
    }
}

pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header, DecompressError> {
    let mut pos = 0usize;
    let magic = bytes.get(..4).ok_or(DecompressError::Truncated)?;
    if magic != MAGIC {
        return Err(DecompressError::BadMagic);
    }
    pos += 4;
    let version = *bytes.get(pos).ok_or(DecompressError::Truncated)?;
    if version != VERSION_V3 && version != VERSION_V2 && version != VERSION_V1 {
        return Err(DecompressError::BadVersion(version));
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
    // In-memory decode ceiling (16 GiB of doubles). Larger datasets use
    // the streaming format, which decodes segment by segment.
    if num_blocks.saturating_mul(bs) > (1usize << 31) {
        return Err(DecompressError::corrupt("decoded size exceeds in-memory ceiling"));
    }

    if version >= VERSION_V2 {
        let stored = u32::from_le_bytes(
            bytes
                .get(pos..pos + 4)
                .ok_or(DecompressError::Truncated)?
                .try_into()
                .unwrap(),
        );
        let actual = crc32(&bytes[..pos]);
        if stored != actual {
            return Err(DecompressError::ChecksumMismatch {
                block: None,
                offset: Some(pos as u64),
                expected: stored,
                actual,
            });
        }
        pos += 4;
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

/// One block's framing within a container: where it sits, its declared
/// checksum (v2+), and the payload bytes.
pub(crate) struct BlockFrame<'a> {
    /// Container byte offset of this block's length varint.
    pub(crate) offset: u64,
    /// CRC32 recorded in the container; `None` for v1.
    pub(crate) stored_crc: Option<u32>,
    pub(crate) payload: &'a [u8],
}

/// Reads the next block frame. Validates the declared length against the
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
    let stored_crc = if checksummed {
        let c = u32::from_le_bytes(
            bytes
                .get(*pos..*pos + 4)
                .ok_or(DecompressError::Truncated)?
                .try_into()
                .unwrap(),
        );
        *pos += 4;
        Some(c)
    } else {
        None
    };
    let payload = bytes
        .get(*pos..pos.checked_add(len).ok_or(DecompressError::Truncated)?)
        .ok_or(DecompressError::Truncated)?;
    *pos += len;
    Ok(BlockFrame {
        offset,
        stored_crc,
        payload,
    })
}

/// Walks the v3 parity record chain that starts at `pos` (a handful of
/// varints, no payload is read), leaving `pos` just past the section.
/// A no-op for containers without parity.
pub(crate) fn skip_parity_section(
    bytes: &[u8],
    header: &Header,
    pos: &mut usize,
) -> Result<(), DecompressError> {
    if !header.has_parity() {
        return Ok(());
    }
    for _ in 0..header.num_blocks.div_ceil(header.parity_group) {
        let record_len = read_varint(bytes, pos)? as usize;
        *pos = pos
            .checked_add(record_len)
            .filter(|&p| p <= bytes.len())
            .ok_or(DecompressError::Truncated)?;
    }
    Ok(())
}

/// Verifies a frame's stored CRC32 against its payload (no-op for v1).
pub(crate) fn verify_frame(frame: &BlockFrame<'_>, block: usize) -> Result<(), DecompressError> {
    if let Some(stored) = frame.stored_crc {
        let actual = crc32(frame.payload);
        if stored != actual {
            return Err(DecompressError::ChecksumMismatch {
                block: Some(block),
                offset: Some(frame.offset),
                expected: stored,
                actual,
            });
        }
    }
    Ok(())
}

/// Decompresses into a caller-provided buffer, reusing its allocation —
/// the right API for the SCF reuse loop, where the same container is
/// decoded every iteration. The buffer is cleared and resized as needed.
///
/// Strict: the first damaged block aborts the decode, and the error
/// carries that block's index and byte offset. Use [`decompress_lossy`]
/// to recover everything around the damage instead.
pub(crate) fn decompress_into(bytes: &[u8], out: &mut Vec<f64>) -> Result<(), DecompressError> {
    let _span = telemetry::span("decompress.container");
    let header = parse_header(bytes)?;
    let geometry = header.geometry;
    let bs = geometry.block_size();
    let tree = header.tree;

    // Slice out per-block payloads (cheap sequential scan, including CRC
    // verification), then decode in parallel.
    let mut frames = Vec::with_capacity(header.num_blocks);
    let mut pos = header.blocks_start;
    for b in 0..header.num_blocks {
        let frame =
            next_frame(bytes, &mut pos, header.has_checksums()).map_err(|e| e.with_block(b))?;
        verify_frame(&frame, b)?;
        frames.push(frame);
    }
    if header.version >= VERSION_V3 {
        if pos != header.blocks_start + header.blocks_len {
            return Err(
                DecompressError::corrupt("blocks section length mismatch").at_offset(pos as u64)
            );
        }
        // Strict decode also demands an intact parity section, so a torn
        // tail is an error, not silence.
        skip_parity_section(bytes, &header, &mut pos)?;
        if pos != bytes.len() {
            return Err(
                DecompressError::corrupt("trailing bytes after parity section")
                    .at_offset(pos as u64),
            );
        }
    }

    let quant = Quantizer::new(header.eb);
    out.clear();
    out.resize(header.num_blocks * bs, 0.0);
    out.par_chunks_mut(bs)
        .zip(frames.par_iter())
        .enumerate()
        .map(|(b, (chunk, frame))| {
            let mut r = BitReader::new(frame.payload);
            decompress_block(&mut r, &geometry, &quant, tree, chunk)
                .map_err(|e| e.with_block(b).at_offset(frame.offset))
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.truncate(header.original_len);
    Ok(())
}

/// The fate of one block under [`decompress_lossy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockOutcome {
    /// Zero-based block index.
    pub block: usize,
    /// Container byte offset of the block's framing (its length varint),
    /// or of the failure point for blocks lost to framing damage.
    pub offset: u64,
    /// `None` if the block decoded cleanly; otherwise why it was skipped.
    pub error: Option<DecompressError>,
    /// `true` when the block was damaged on disk but reconstructed from
    /// the container's parity section before decoding (v3 only).
    pub repaired: bool,
}

impl BlockOutcome {
    /// Did this block decode cleanly (possibly after parity repair)?
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Result of a best-effort decode: recovered values plus a per-block
/// damage report.
#[derive(Debug, Clone)]
pub struct LossyDecode {
    /// Decoded values; elements belonging to damaged blocks are `0.0`
    /// (the format's padding value, matching the paper's screened-element
    /// convention). Length equals the recorded original length.
    pub values: Vec<f64>,
    /// One entry per declared block, in order.
    pub outcomes: Vec<BlockOutcome>,
}

impl LossyDecode {
    /// Number of blocks that could not be recovered.
    #[must_use]
    pub fn damaged(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.is_ok()).count()
    }

    /// Number of blocks reconstructed from parity before decoding.
    #[must_use]
    pub fn repaired(&self) -> usize {
        self.outcomes.iter().filter(|o| o.repaired).count()
    }

    /// `true` when every block decoded cleanly (repaired blocks count as
    /// clean — their values are byte-exact reconstructions).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.damaged() == 0
    }
}

/// Best-effort decompression: damaged blocks are first *repaired* from
/// the container's parity section (v3), and only blocks beyond the
/// parity budget are skipped (their output left zero-filled) and
/// reported. Only header-level damage — bad magic/version, a truncated
/// or checksum-failed header — is a hard error, because without a
/// trusted header there is no geometry to frame blocks with.
///
/// Every recovered block still honors the container's error bound; the
/// report tells the caller exactly which value ranges are untrustworthy
/// (block `b` covers `b·block_size .. (b+1)·block_size` values) and
/// which were silently repaired ([`BlockOutcome::repaired`]).
pub fn decompress_lossy(bytes: &[u8]) -> Result<LossyDecode, DecompressError> {
    let header = parse_header(bytes)?;
    if header.has_parity() {
        let (repaired_bytes, report) = crate::repair::repair_with_header(bytes, &header);
        if !report.repaired_blocks.is_empty() {
            let repaired_header = parse_header(&repaired_bytes)?;
            let mut decode = decompress_lossy_core(&repaired_bytes, &repaired_header)?;
            for &b in &report.repaired_blocks {
                if let Some(o) = decode.outcomes.get_mut(b) {
                    o.repaired = true;
                }
            }
            return Ok(decode);
        }
    }
    decompress_lossy_core(bytes, &header)
}

fn decompress_lossy_core(bytes: &[u8], header: &Header) -> Result<LossyDecode, DecompressError> {
    let geometry = header.geometry;
    let bs = geometry.block_size();
    let tree = header.tree;

    // Frame what we can. A damaged length varint breaks framing for every
    // later block (lengths chain), so the scan stops there and the
    // remaining blocks are reported lost at the failure offset.
    let mut frames: Vec<Result<BlockFrame<'_>, (u64, DecompressError)>> =
        Vec::with_capacity(header.num_blocks);
    let mut pos = header.blocks_start;
    let mut framing_lost: Option<(u64, DecompressError)> = None;
    for b in 0..header.num_blocks {
        if let Some(lost) = framing_lost {
            frames.push(Err(lost));
            continue;
        }
        match next_frame(bytes, &mut pos, header.has_checksums()) {
            Ok(frame) => frames.push(Ok(frame)),
            Err(e) => {
                let at = (pos as u64, e.with_block(b));
                frames.push(Err(at));
                framing_lost = Some(at);
            }
        }
    }

    let quant = Quantizer::new(header.eb);
    let mut values = vec![0.0f64; header.num_blocks * bs];
    let outcomes: Vec<BlockOutcome> = values
        .par_chunks_mut(bs)
        .zip(frames.par_iter())
        .enumerate()
        .map(|(b, (chunk, frame))| {
            let error = match frame {
                Err((offset, e)) => {
                    return BlockOutcome {
                        block: b,
                        offset: *offset,
                        error: Some(*e),
                        repaired: false,
                    }
                }
                Ok(frame) => verify_frame(frame, b).err().or_else(|| {
                    let mut r = BitReader::new(frame.payload);
                    match decompress_block(&mut r, &geometry, &quant, tree, chunk) {
                        Ok(()) => None,
                        Err(e) => {
                            // A failed decode may have partially filled the
                            // chunk; restore the zero fill.
                            chunk.fill(0.0);
                            Some(e.with_block(b).at_offset(frame.offset))
                        }
                    }
                }),
            };
            let offset = match frame {
                Ok(f) => f.offset,
                Err((o, _)) => *o,
            };
            BlockOutcome {
                block: b,
                offset,
                error,
                repaired: false,
            }
        })
        .collect();
    values.truncate(header.original_len);
    Ok(LossyDecode { values, outcomes })
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

    /// A compressor writing the parity-free v2 layout — for tests that
    /// assert the pre-v3 bytes or the detect-without-repair semantics.
    fn no_parity(geom: BlockGeometry, eb: f64) -> Compressor {
        Compressor::with_options(
            geom,
            eb,
            CompressorOptions {
                parity: ParityConfig::NONE,
                ..Default::default()
            },
        )
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
        let (bytes, stats) = c.compress_with_stats(&data);
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
        assert_eq!(decompress(b"nope").unwrap_err(), DecompressError::BadMagic);
        assert_eq!(decompress(b"PS").unwrap_err(), DecompressError::Truncated);
        let geom = BlockGeometry::new(2, 2);
        let c = Compressor::new(geom, 1e-10);
        let mut bytes = c.compress(&[1e-6, 2e-6, 3e-6, 4e-6]);
        bytes[4] = 99; // bad version
        assert!(matches!(
            decompress(&bytes).unwrap_err(),
            DecompressError::BadVersion(99)
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
    fn decompress_into_reuses_buffer() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = Compressor::new(geom, 1e-10);
        let data = patterned_stream(3, geom);
        let bytes = c.compress(&data);
        let mut buf = Vec::with_capacity(data.len() + 100);
        let cap_before = buf.capacity();
        super::decompress_into(&bytes, &mut buf).unwrap();
        assert_eq!(buf.len(), data.len());
        assert_eq!(buf.capacity(), cap_before, "no reallocation expected");
        for (a, b) in data.iter().zip(&buf) {
            assert!((a - b).abs() <= 1e-10);
        }
        // Second decode into the same buffer.
        super::decompress_into(&bytes, &mut buf).unwrap();
        assert_eq!(buf.len(), data.len());
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
        let c = no_parity(geom, 1e-9);
        let bytes = c.compress(&patterned_stream(3, geom));
        assert_eq!(bytes[4], VERSION_V2);
        let header = parse_header(&bytes).unwrap();
        assert!(header.has_checksums());
        assert!(!header.has_parity());
        let mut pos = header.blocks_start;
        for b in 0..header.num_blocks {
            let frame = next_frame(&bytes, &mut pos, true).unwrap();
            verify_frame(&frame, b).unwrap();
        }
        assert_eq!(pos, bytes.len(), "no trailing bytes");
    }

    #[test]
    fn writes_v3_with_parity_section_by_default() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let bytes = c.compress(&patterned_stream(11, geom)); // 2 groups of 8 (one partial)
        assert_eq!(bytes[4], VERSION_V3);
        let header = parse_header(&bytes).unwrap();
        assert!(header.has_parity());
        assert_eq!(header.parity_group, 8);
        assert_eq!(header.parity_shards, 2);

        // Blocks section ends exactly where the header says.
        let mut pos = header.blocks_start;
        for b in 0..header.num_blocks {
            let frame = next_frame(&bytes, &mut pos, true).unwrap();
            verify_frame(&frame, b).unwrap();
        }
        assert_eq!(pos, header.blocks_start + header.blocks_len);

        // Parity records chain to the end of the file.
        let num_groups = header.num_blocks.div_ceil(header.parity_group);
        for _ in 0..num_groups {
            let record_len = read_varint(&bytes, &mut pos).unwrap() as usize;
            pos += record_len;
        }
        assert_eq!(pos, bytes.len(), "no trailing bytes after parity");

        // A pristine container reports clean and repairs to itself.
        let (repaired, report) = crate::repair::repair_container(&bytes).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(repaired, bytes);
    }

    #[test]
    fn parity_none_writes_byte_identical_v2() {
        let geom = BlockGeometry::new(2, 4);
        let data = patterned_stream(4, geom);
        let v2 = no_parity(geom, 1e-9).compress(&data);
        let v3 = Compressor::new(geom, 1e-9).compress(&data);
        assert!(v3.len() > v2.len(), "parity section must add bytes");
        // Same payloads, same framing — v3 is v2 plus header varints and
        // the parity section.
        let back2 = decompress(&v2).unwrap();
        let back3 = decompress(&v3).unwrap();
        assert_eq!(back2, back3);
    }

    #[test]
    fn v1_containers_still_decode() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = no_parity(geom, 1e-10);
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

    #[test]
    fn lossy_decode_recovers_undamaged_blocks() {
        // Parity-free container: damage is detected and skipped, not
        // repaired — the pre-v3 contract.
        let geom = BlockGeometry::new(2, 4);
        let bs = geom.block_size();
        let c = no_parity(geom, 1e-9);
        let data = patterned_stream(6, geom);
        let bytes = c.compress(&data);
        let clean = decompress(&bytes).unwrap();

        // Clean container: lossy == strict.
        let lossy = decompress_lossy(&bytes).unwrap();
        assert!(lossy.is_clean());
        assert_eq!(lossy.values, clean);

        // Flip a bit in block 2's payload.
        let header = parse_header(&bytes).unwrap();
        let mut pos = header.blocks_start;
        let mut flip_at = 0;
        for b in 0..header.num_blocks {
            let frame = next_frame(&bytes, &mut pos, true).unwrap();
            if b == 2 {
                flip_at = pos - frame.payload.len() + 1;
            }
        }
        let mut damaged = bytes.clone();
        damaged[flip_at] ^= 0x80;

        let lossy = decompress_lossy(&damaged).unwrap();
        assert_eq!(lossy.damaged(), 1);
        assert!(!lossy.outcomes[2].is_ok());
        assert!(matches!(
            lossy.outcomes[2].error,
            Some(DecompressError::ChecksumMismatch { block: Some(2), .. })
        ));
        assert_eq!(lossy.values.len(), clean.len());
        for (i, (a, b)) in lossy.values.iter().zip(&clean).enumerate() {
            if (2 * bs..3 * bs).contains(&i) {
                assert_eq!(*a, 0.0, "damaged block must be zero-filled at {i}");
            } else {
                assert_eq!(a, b, "undamaged value differs at {i}");
            }
        }
    }

    #[test]
    fn lossy_decode_reports_framing_loss() {
        // Parity-free container: a damaged length varint loses every
        // later block — the pre-v3 contract v3 parity exists to fix.
        let geom = BlockGeometry::new(2, 4);
        let c = no_parity(geom, 1e-9);
        let bytes = c.compress(&patterned_stream(5, geom));
        let header = parse_header(&bytes).unwrap();
        // Corrupt block 1's length varint to an absurd value: framing for
        // blocks 1.. is gone, but block 0 must survive.
        let mut pos = header.blocks_start;
        let _ = next_frame(&bytes, &mut pos, true).unwrap();
        let mut damaged = bytes.clone();
        damaged[pos] = 0xff;
        damaged[pos + 1] = 0xff;

        let lossy = decompress_lossy(&damaged).unwrap();
        assert!(lossy.outcomes[0].is_ok());
        assert_eq!(lossy.damaged(), 4);
        for o in &lossy.outcomes[1..] {
            assert!(!o.is_ok());
        }
    }

    #[test]
    fn lossy_decode_repairs_payload_damage() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let data = patterned_stream(6, geom);
        let bytes = c.compress(&data);
        let clean = decompress(&bytes).unwrap();

        // Flip a bit in block 2's payload.
        let header = parse_header(&bytes).unwrap();
        let mut pos = header.blocks_start;
        let mut flip_at = 0;
        for b in 0..header.num_blocks {
            let frame = next_frame(&bytes, &mut pos, true).unwrap();
            if b == 2 {
                flip_at = pos - frame.payload.len() + 1;
            }
        }
        let mut damaged = bytes.clone();
        damaged[flip_at] ^= 0x80;

        // Strict decode still refuses silently-corrupted input...
        assert!(decompress(&damaged).is_err());
        // ...but the lossy path repairs it transparently and says so.
        let lossy = decompress_lossy(&damaged).unwrap();
        assert!(lossy.is_clean(), "repair should recover the block");
        assert_eq!(lossy.repaired(), 1);
        assert!(lossy.outcomes[2].repaired);
        assert_eq!(lossy.values, clean);
    }

    #[test]
    fn lossy_decode_repairs_framing_damage() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let data = patterned_stream(5, geom);
        let bytes = c.compress(&data);
        let clean = decompress(&bytes).unwrap();
        let header = parse_header(&bytes).unwrap();
        // Corrupt block 1's length varint — pre-v3 this lost blocks 1..;
        // the parity metadata's duplicate lengths re-anchor the frames.
        let mut pos = header.blocks_start;
        let _ = next_frame(&bytes, &mut pos, true).unwrap();
        let mut damaged = bytes.clone();
        damaged[pos] = 0xff;
        damaged[pos + 1] = 0xff;

        let lossy = decompress_lossy(&damaged).unwrap();
        assert!(lossy.is_clean(), "framing damage should repair: {:?}",
            lossy.outcomes.iter().filter(|o| !o.is_ok()).collect::<Vec<_>>());
        assert_eq!(lossy.values, clean);
    }

    #[test]
    fn repair_is_byte_identical_for_every_single_byte_corruption() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let bytes = c.compress(&patterned_stream(10, geom));
        let header = parse_header(&bytes).unwrap();
        // Every byte past the header (the header itself carries no
        // parity): payloads, CRCs, length varints, parity metadata,
        // shard checksums, shard bytes.
        for at in header.blocks_start..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x40;
            if damaged[at] == bytes[at] {
                continue;
            }
            let (repaired, report) = crate::repair::repair_container(&damaged).unwrap();
            assert!(report.is_fully_repaired(), "byte {at}: {report:?}");
            assert_eq!(repaired, bytes, "byte {at} did not repair byte-identically");
        }
    }

    #[test]
    fn damage_beyond_parity_budget_degrades_to_skip() {
        let geom = BlockGeometry::new(2, 4);
        let bs = geom.block_size();
        let c = Compressor::new(geom, 1e-9);
        let data = patterned_stream(6, geom); // one group of 6, 2 shards
        let bytes = c.compress(&data);
        let clean = decompress(&bytes).unwrap();
        let header = parse_header(&bytes).unwrap();
        // Damage 3 payloads (> 2 shards): unrepairable, but lossy decode
        // still recovers the other 3 blocks.
        let mut damaged = bytes.clone();
        let mut pos = header.blocks_start;
        for b in 0..header.num_blocks {
            let frame = next_frame(&bytes, &mut pos, true).unwrap();
            if b < 3 {
                damaged[pos - frame.payload.len() / 2] ^= 0x08;
            }
        }
        let (_, report) = crate::repair::repair_container(&damaged).unwrap();
        assert_eq!(report.unrepairable_blocks, vec![0, 1, 2]);
        assert!(!report.is_fully_repaired());

        let lossy = decompress_lossy(&damaged).unwrap();
        assert_eq!(lossy.damaged(), 3);
        for (i, (a, b)) in lossy.values.iter().zip(&clean).enumerate() {
            if i < 3 * bs {
                assert_eq!(*a, 0.0, "unrepairable block must zero-fill at {i}");
            } else {
                assert_eq!(a, b, "undamaged value differs at {i}");
            }
        }
    }

    #[test]
    fn repair_handles_torn_parity_tail() {
        // A torn write that loses part of the parity section: the data is
        // intact, so repair regenerates the full section byte-identically.
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let bytes = c.compress(&patterned_stream(9, geom));
        let header = parse_header(&bytes).unwrap();
        let parity_start = header.blocks_start + header.blocks_len;
        for cut in [parity_start, parity_start + 3, bytes.len() - 1] {
            let (repaired, report) = crate::repair::repair_container(&bytes[..cut]).unwrap();
            assert!(report.is_fully_repaired(), "cut={cut}: {report:?}");
            assert_eq!(repaired, bytes, "cut={cut}");
        }
    }

    #[test]
    fn lossy_decode_rejects_header_damage() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-9);
        let mut bytes = c.compress(&patterned_stream(2, geom));
        bytes[8] ^= 0x01; // error-bound field: header CRC must fail
        assert!(decompress_lossy(&bytes).is_err());
        assert!(decompress_lossy(b"nope").is_err());
    }
}
