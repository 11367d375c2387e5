//! Container inspection without full decompression.
//!
//! Parses the container header and each block's 3-bit kind tag (the first
//! bits of every payload), giving tooling a cheap census — sizes, error
//! bound, geometry, per-kind block counts — without decoding a single
//! data value.

use bitio::{bits_for, BitReader};

use crate::block::{paper_block_type, BlockKind};
use crate::container::read_varint;
use crate::encoding::EncodingTree;
use crate::error::DecompressError;
use crate::geometry::BlockGeometry;
use crate::metrics::ScalingMetric;
use crate::quant::{ecq_bits, ScaleQuantizer};
use crate::stats::CompressionStats;

/// Everything the container header + block tags reveal.
#[derive(Debug, Clone)]
pub struct ContainerInfo {
    /// Container format version (1 = legacy checksum-free, 2 = CRC32
    /// over header and each block payload, 3 = v2 plus a Reed–Solomon
    /// parity section for self-healing).
    pub version: u8,
    /// Absolute error bound the stream was compressed with.
    pub error_bound: f64,
    /// Block geometry.
    pub geometry: BlockGeometry,
    /// Original number of doubles (before tail padding).
    pub original_len: usize,
    /// Number of blocks (including the padded tail block).
    pub num_blocks: usize,
    /// Total container size in bytes.
    pub container_bytes: usize,
    /// Scaling metric recorded at compression time (provenance).
    pub metric: Option<ScalingMetric>,
    /// Encoding tree recorded at compression time.
    pub tree: EncodingTree,
    /// Blocks per [`BlockKind`], indexed by discriminant
    /// (AllZero, PatternOnly, Dense, Sparse, Verbatim).
    pub kind_counts: [u64; 5],
    /// Sum of per-block payload bytes (container minus framing).
    pub payload_bytes: u64,
    /// Blocks per parity group (v3; 0 when the container carries no
    /// parity).
    pub parity_group: usize,
    /// Reed–Solomon erasure shards per parity group (v3; 0 otherwise).
    pub parity_shards: usize,
    /// Bytes of the parity section, records included (v3; 0 otherwise).
    pub parity_bytes: u64,
}

impl ContainerInfo {
    /// Compression ratio versus raw doubles.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.container_bytes == 0 {
            return 0.0;
        }
        (self.original_len * 8) as f64 / self.container_bytes as f64
    }
}

/// Parses a PaSTRI container's metadata. Cost is O(number of blocks), not
/// O(data): only each block's first byte is examined.
pub fn inspect(bytes: &[u8]) -> Result<ContainerInfo, DecompressError> {
    let (mut info, _) = inspect_prefix(bytes)?;
    // Historical behavior: the whole input is attributed to the
    // container, trailing bytes included.
    info.container_bytes = bytes.len();
    Ok(info)
}

/// Parses a container at the *start* of `bytes`, tolerating trailing
/// data, and returns the info plus the exact byte length the container
/// occupies. This is what lets recovery re-walk back-to-back containers
/// (e.g. rebuilding a store index after a crash) without an index.
pub fn inspect_prefix(bytes: &[u8]) -> Result<(ContainerInfo, usize), DecompressError> {
    let (h, mut pos) = parse_container_header(bytes)?;
    let ParsedHeader {
        version,
        checksummed,
        error_bound,
        metric,
        tree,
        geometry,
        original_len,
        num_blocks,
        parity_group,
        parity_shards,
    } = h;

    let mut kind_counts = [0u64; 5];
    let mut payload_bytes = 0u64;
    for _ in 0..num_blocks {
        let len = read_varint(bytes, &mut pos)? as usize;
        if checksummed {
            bytes.get(pos..pos + 4).ok_or(DecompressError::Truncated)?;
            pos += 4;
        }
        let payload = bytes
            .get(pos..pos.checked_add(len).ok_or(DecompressError::Truncated)?)
            .ok_or(DecompressError::Truncated)?;
        // Kind is the top 3 bits of the first payload byte; an AllZero
        // block is 1 byte, everything else longer.
        let first = *payload.first().ok_or(DecompressError::corrupt("empty block payload"))?;
        let kind = first >> 5;
        if kind > BlockKind::Verbatim as u8 {
            return Err(DecompressError::corrupt("unknown block kind"));
        }
        kind_counts[kind as usize] += 1;
        payload_bytes += len as u64;
        pos += len;
    }
    // v3: the parity section follows the blocks; walk its record chain so
    // the returned prefix length covers the full container.
    let mut parity_bytes = 0u64;
    if version >= 3 && parity_shards > 0 {
        let parity_start = pos;
        for _ in 0..num_blocks.div_ceil(parity_group) {
            let record_len = read_varint(bytes, &mut pos)? as usize;
            pos = pos
                .checked_add(record_len)
                .filter(|&p| p <= bytes.len())
                .ok_or(DecompressError::Truncated)?;
        }
        parity_bytes = (pos - parity_start) as u64;
    }
    Ok((
        ContainerInfo {
            version,
            error_bound,
            geometry,
            original_len,
            num_blocks,
            container_bytes: pos,
            metric,
            tree,
            kind_counts,
            payload_bytes,
            parity_group,
            parity_shards,
            parity_bytes,
        },
        pos,
    ))
}

/// Container header fields shared by the census and bit-accounting walks.
struct ParsedHeader {
    version: u8,
    checksummed: bool,
    error_bound: f64,
    metric: Option<ScalingMetric>,
    tree: EncodingTree,
    geometry: BlockGeometry,
    original_len: usize,
    num_blocks: usize,
    parity_group: usize,
    parity_shards: usize,
}

/// Parses the fixed container header at the start of `bytes`, returning
/// the fields plus the byte offset where the block frames begin.
fn parse_container_header(bytes: &[u8]) -> Result<(ParsedHeader, usize), DecompressError> {
    let mut pos = 0usize;
    if bytes.get(..4) != Some(b"PSTR".as_slice()) {
        return Err(DecompressError::BadMagic);
    }
    pos += 4;
    let version = *bytes.get(pos).ok_or(DecompressError::Truncated)?;
    if version != 1 && version != 2 && version != 3 {
        return Err(DecompressError::BadVersion(version));
    }
    let checksummed = version >= 2;
    pos += 1;
    let metric = ScalingMetric::from_wire_id(*bytes.get(pos).ok_or(DecompressError::Truncated)?);
    pos += 1;
    let tree = EncodingTree::from_wire_id(*bytes.get(pos).ok_or(DecompressError::Truncated)?)
        .ok_or(DecompressError::corrupt("unknown encoding tree"))?;
    pos += 1;
    let eb_bytes: [u8; 8] = bytes
        .get(pos..pos + 8)
        .ok_or(DecompressError::Truncated)?
        .try_into()
        .unwrap();
    let error_bound = f64::from_le_bytes(eb_bytes);
    pos += 8;
    let num_sb = read_varint(bytes, &mut pos)? as usize;
    let sb_size = read_varint(bytes, &mut pos)? as usize;
    if num_sb == 0 || sb_size == 0 || num_sb.saturating_mul(sb_size) > (1 << 28) {
        return Err(DecompressError::corrupt("implausible geometry"));
    }
    let original_len = read_varint(bytes, &mut pos)? as usize;
    let num_blocks = read_varint(bytes, &mut pos)? as usize;
    if num_blocks > bytes.len() {
        return Err(DecompressError::corrupt("block count exceeds container size"));
    }
    let (mut parity_group, mut parity_shards) = (0usize, 0usize);
    if version >= 3 {
        parity_group = read_varint(bytes, &mut pos)? as usize;
        parity_shards = read_varint(bytes, &mut pos)? as usize;
        let _blocks_len = read_varint(bytes, &mut pos)?;
        if parity_group == 0
            || parity_shards == 0
            || parity_group.saturating_add(parity_shards) > 255
        {
            return Err(DecompressError::corrupt("implausible parity geometry"));
        }
    }
    let geometry = BlockGeometry::new(num_sb, sb_size);
    if checksummed {
        // Header CRC32 — present but not verified here: inspection is a
        // census, `decompress`/`decompress_lossy` do the verification.
        bytes.get(pos..pos + 4).ok_or(DecompressError::Truncated)?;
        pos += 4;
    }
    Ok((
        ParsedHeader {
            version,
            checksummed,
            error_bound,
            metric,
            tree,
            geometry,
            original_len,
            num_blocks,
            parity_group,
            parity_shards,
        },
        pos,
    ))
}

/// Reconstructs the full [`CompressionStats`] of a container from its
/// bytes alone — the same accounting `compress_with_stats` produces,
/// recovered after the fact by walking every block's bit layout.
///
/// Decodes structure (widths, kinds, ECQ symbols) but never dequantizes a
/// value, so it is cheaper than decompression and needs no error-bound
/// arithmetic. For any well-formed container the result is *identical*,
/// field for field, to what the compressor recorded when it produced the
/// bytes; `pastri inspect` uses this to print the Sec. V-B storage
/// breakdown for archived datasets whose compression-time stats are gone.
pub fn container_bit_stats(bytes: &[u8]) -> Result<CompressionStats, DecompressError> {
    let (h, mut pos) = parse_container_header(bytes)?;
    let geom = h.geometry;
    let sbs = geom.subblock_size;
    let block_size = geom.block_size();
    let pat_sb_bits = u64::from(bits_for(geom.num_subblocks as u64));

    let mut stats = CompressionStats::default();
    let mut payload_bytes = 0u64;
    for _ in 0..h.num_blocks {
        let len = read_varint(bytes, &mut pos)? as usize;
        if h.checksummed {
            bytes.get(pos..pos + 4).ok_or(DecompressError::Truncated)?;
            pos += 4;
        }
        let payload = bytes
            .get(pos..pos.checked_add(len).ok_or(DecompressError::Truncated)?)
            .ok_or(DecompressError::Truncated)?;
        pos += len;
        payload_bytes += len as u64;

        let mut r = BitReader::new(payload);
        let kind = BlockKind::from_bits(r.read_bits(3)?)
            .ok_or(DecompressError::corrupt("unknown block kind"))?;
        match kind {
            BlockKind::AllZero => {
                stats.record_header_bits(3);
                // The compressor has always filed AllZero under type
                // index 1; reproduce its accounting exactly.
                stats.record_block(BlockKind::AllZero, 1);
                continue;
            }
            BlockKind::Verbatim => {
                stats.record_header_bits(3);
                stats.record_verbatim_bits(block_size as u64 * 64);
                stats.record_block(BlockKind::Verbatim, 3);
                continue;
            }
            _ => {}
        }

        let _pattern_sb = r.read_bits(bits_for(geom.num_subblocks as u64))?;
        let pb = r.read_bits(6)? as u32;
        if !(2..=62).contains(&pb) {
            return Err(DecompressError::corrupt("pattern bit width out of range"));
        }
        let sb_bits = r.read_bits(6)? as u32;
        if !(2..=62).contains(&sb_bits) {
            return Err(DecompressError::corrupt("scale bit width out of range"));
        }
        for _ in 0..sbs {
            r.read_signed(pb)?;
        }
        let sq_quant = ScaleQuantizer::new(sb_bits);
        for _ in 0..geom.num_subblocks {
            r.read_signed(sq_quant.bits())?;
        }
        stats.record_pq_bits(sbs as u64 * u64::from(pb));
        stats.record_sq_bits(geom.num_subblocks as u64 * u64::from(sq_quant.bits()));

        match kind {
            BlockKind::PatternOnly => {
                stats.record_header_bits(3 + pat_sb_bits + 12);
                stats.record_ecq_bits(0);
                let bt = usize::from(paper_block_type(kind, 0));
                stats.record_block(kind, bt);
                for _ in 0..block_size {
                    stats.record_ecq_value(bt, ecq_bits(0));
                }
            }
            BlockKind::Dense => {
                stats.record_header_bits(3 + pat_sb_bits + 12 + 6);
                let ecb_max = r.read_bits(6)? as u32;
                if !(1..=62).contains(&ecb_max) {
                    return Err(DecompressError::corrupt("EC bit width out of range"));
                }
                let before = r.bit_pos();
                let mut ecq = Vec::with_capacity(block_size);
                h.tree.decode_stream(block_size, ecb_max, &mut r, &mut ecq)?;
                stats.record_ecq_bits(r.bit_pos() - before);
                let bt = usize::from(paper_block_type(kind, ecb_max));
                stats.record_block(kind, bt);
                for &q in &ecq {
                    stats.record_ecq_value(bt, ecq_bits(q));
                }
            }
            BlockKind::Sparse => {
                stats.record_header_bits(3 + pat_sb_bits + 12 + 6);
                let ecb_max = r.read_bits(6)? as u32;
                if !(1..=62).contains(&ecb_max) {
                    return Err(DecompressError::corrupt("EC bit width out of range"));
                }
                let count_bits = bits_for(block_size as u64 + 1);
                let idx_bits = bits_for(block_size as u64);
                let nol = r.read_bits(count_bits)? as usize;
                if nol > block_size {
                    return Err(DecompressError::corrupt("outlier count exceeds block size"));
                }
                stats.record_ecq_bits(
                    u64::from(count_bits) + nol as u64 * u64::from(idx_bits + ecb_max),
                );
                let bt = usize::from(paper_block_type(kind, ecb_max));
                stats.record_block(kind, bt);
                for _ in 0..nol {
                    let idx = r.read_bits(idx_bits)? as usize;
                    if idx >= block_size {
                        return Err(DecompressError::corrupt("outlier index out of range"));
                    }
                    let q = r.read_signed(ecb_max)?;
                    stats.record_ecq_value(bt, ecq_bits(q));
                }
                // The encoder histograms every point, zeros included.
                for _ in 0..block_size - nol {
                    stats.record_ecq_value(bt, ecq_bits(0));
                }
            }
            BlockKind::AllZero | BlockKind::Verbatim => unreachable!(),
        }
    }

    // v3: walk the parity record chain so overhead accounting covers it.
    if h.version >= 3 && h.parity_shards > 0 {
        for _ in 0..h.num_blocks.div_ceil(h.parity_group) {
            let record_len = read_varint(bytes, &mut pos)? as usize;
            pos = pos
                .checked_add(record_len)
                .filter(|&p| p <= bytes.len())
                .ok_or(DecompressError::Truncated)?;
        }
    }

    stats.compressed_bytes = pos as u64;
    stats.original_bytes = (h.original_len * 8) as u64;
    stats.record_container_bits((pos as u64 - payload_bytes) * 8);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Compressor;

    #[test]
    fn inspect_matches_compression_stats() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = Compressor::new(geom, 1e-10);
        let mut data = Vec::new();
        // Three flavours: patterned, zero, and noisy blocks.
        let pat: Vec<f64> = (0..36).map(|i| ((i as f64) * 0.4).sin() * 1e-6).collect();
        for j in 0..36 {
            data.extend(pat.iter().map(|p| p * (1.0 - j as f64 / 40.0)));
        }
        data.extend(std::iter::repeat_n(0.0, 1296));
        let mut x = 7u64;
        data.extend((0..1296).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 11) as f64 / 2f64.powi(53) - 0.5) * 1e-6
        }));

        let (bytes, stats) = c.compress_with_stats(&data);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.parity_group, 8);
        assert_eq!(info.parity_shards, 2);
        assert!(info.parity_bytes > 0);
        assert_eq!(info.error_bound, 1e-10);
        assert_eq!(info.geometry, geom);
        assert_eq!(info.original_len, data.len());
        assert_eq!(info.num_blocks, 3);
        assert_eq!(info.container_bytes, bytes.len());
        assert_eq!(info.kind_counts, stats.kind_counts);
        assert_eq!(info.tree, crate::encoding::EncodingTree::Tree5);
        assert!(info.compression_ratio() > 1.0);
        assert!(info.payload_bytes <= bytes.len() as u64);
    }

    #[test]
    fn container_bit_stats_matches_compressor_exactly() {
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let c = Compressor::new(geom, 1e-10);
        let mut data = Vec::new();
        // Patterned (pattern-only / sparse), zero, noisy (dense), and
        // non-finite (verbatim) blocks — every BlockKind on the wire.
        let pat: Vec<f64> = (0..36).map(|i| ((i as f64) * 0.4).sin() * 1e-6).collect();
        for j in 0..36 {
            data.extend(pat.iter().map(|p| p * (1.0 - j as f64 / 40.0)));
        }
        data.extend(std::iter::repeat_n(0.0, 1296));
        let mut x = 7u64;
        data.extend((0..1296).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 11) as f64 / 2f64.powi(53) - 0.5) * 1e-6
        }));
        let mut tail = vec![1e-6; 1296];
        tail[100] = f64::NAN;
        data.extend(tail);

        let (bytes, stats) = c.compress_with_stats(&data);
        assert!(stats.kind_counts[4] > 0, "dataset must include a verbatim block");
        let recovered = container_bit_stats(&bytes).unwrap();
        assert_eq!(recovered, stats, "wire walk must reproduce compression-time stats");
    }

    #[test]
    fn container_bit_stats_rejects_garbage() {
        assert!(matches!(
            container_bit_stats(b"nope"),
            Err(DecompressError::BadMagic)
        ));
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-8);
        let bytes = c.compress(&[1e-5; 8]);
        assert!(container_bit_stats(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn inspect_rejects_garbage() {
        assert!(matches!(inspect(b"nope"), Err(DecompressError::BadMagic)));
        let geom = BlockGeometry::new(2, 2);
        let c = Compressor::new(geom, 1e-8);
        let bytes = c.compress(&[1e-5; 8]);
        assert!(inspect(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn inspect_prefix_tolerates_trailing_data() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-8);
        let a = c.compress(&[1e-5; 8]);
        let b = c.compress(&[2e-5; 8]);
        // Two back-to-back containers: prefix parsing walks each exactly.
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let (info_a, len_a) = inspect_prefix(&joined).unwrap();
        assert_eq!(len_a, a.len());
        assert_eq!(info_a.container_bytes, a.len());
        let (info_b, len_b) = inspect_prefix(&joined[len_a..]).unwrap();
        assert_eq!(len_b, b.len());
        assert_eq!(info_b.original_len, 8);
        // Whole-input inspect still attributes everything to one container.
        assert_eq!(inspect(&joined).unwrap().container_bytes, joined.len());
    }

    #[test]
    fn inspect_is_cheap_for_all_zero() {
        let geom = BlockGeometry::new(10, 100);
        let c = Compressor::new(geom, 1e-10);
        let bytes = c.compress(&vec![0.0; 100_000]);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.kind_counts[0], 100); // all AllZero
        assert_eq!(info.num_blocks, 100);
    }
}
