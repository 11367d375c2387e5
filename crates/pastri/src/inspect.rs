//! Container inspection without full decompression.
//!
//! Both entry points read a container through the decoder's own walkers:
//! [`parse_header`] (so the header CRC, error bound, block count and size
//! ceiling are validated exactly as `decompress` validates them),
//! [`next_frame`], [`skip_parity_section`] and, for the bit accounting,
//! [`walk_block`]. [`inspect`] is a cheap census — sizes, error bound,
//! geometry, per-kind block counts from each payload's 3-bit kind tag —
//! that never decodes a value; [`container_bit_stats`] walks every block's
//! bit layout to recover the compressor's storage accounting.

use bitio::BitReader;

use crate::block::{paper_block_type, walk_block, BlockKind, BlockLayout, BlockSink};
use crate::container::{next_frame, parse_header, skip_parity_section};
use crate::encoding::{EcqCounts, EncodingTree};
use crate::error::DecompressError;
use crate::geometry::BlockGeometry;
use crate::metrics::ScalingMetric;
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
    /// Blocks per storage kind, in index order: all-zero, pattern-only,
    /// dense, sparse, verbatim.
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
    let header = parse_header(bytes)?;
    let mut pos = header.blocks_start;
    let mut kind_counts = [0u64; 5];
    let mut payload_bytes = 0u64;
    for b in 0..header.num_blocks {
        let frame =
            next_frame(bytes, &mut pos, header.has_checksums()).map_err(|e| e.with_block(b))?;
        // The kind is the top 3 bits of the (never empty) payload.
        let kind = BlockKind::from_bits(u64::from(frame.payload[0] >> 5))
            .ok_or(DecompressError::corrupt("unknown block kind"))?;
        kind_counts[kind as usize] += 1;
        payload_bytes += frame.payload.len() as u64;
    }
    let parity_start = pos;
    skip_parity_section(bytes, &header, &mut pos)?;
    Ok((
        ContainerInfo {
            version: header.version,
            error_bound: header.eb,
            geometry: header.geometry,
            original_len: header.original_len,
            num_blocks: header.num_blocks,
            container_bytes: pos,
            metric: header.metric,
            tree: header.tree,
            kind_counts,
            payload_bytes,
            parity_group: header.parity_group,
            parity_shards: header.parity_shards,
            parity_bytes: (pos - parity_start) as u64,
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
    let header = parse_header(bytes)?;
    let mut sink = StatsSink {
        stats: CompressionStats::default(),
        counts: EcqCounts::default(),
        block_size: header.geometry.block_size(),
    };
    let mut pos = header.blocks_start;
    let mut payload_bytes = 0u64;
    for b in 0..header.num_blocks {
        let frame =
            next_frame(bytes, &mut pos, header.has_checksums()).map_err(|e| e.with_block(b))?;
        payload_bytes += frame.payload.len() as u64;
        let mut r = BitReader::new(frame.payload);
        walk_block(&mut r, &header.geometry, header.tree, &mut sink)
            .map_err(|e| e.with_block(b).at_offset(frame.offset))?;
    }
    skip_parity_section(bytes, &header, &mut pos)?;

    let mut stats = sink.stats;
    stats.compressed_bytes = pos as u64;
    stats.original_bytes = (header.original_len * 8) as u64;
    stats.record_container_bits((pos as u64 - payload_bytes) * 8);
    Ok(stats)
}

/// The bit-accounting sink: files each block exactly as the compressor
/// did when it wrote it.
struct StatsSink {
    stats: CompressionStats,
    /// ECQ census of the block being walked.
    counts: EcqCounts,
    block_size: usize,
}

impl BlockSink for StatsSink {
    fn dense(&mut self, ecq: &[i64]) {
        for &q in ecq {
            self.counts.record(q);
        }
    }

    fn outlier(&mut self, _idx: usize, q: i64) {
        self.counts.record(q);
    }

    fn end(&mut self, layout: &BlockLayout) {
        let s = &mut self.stats;
        s.record_header_bits(layout.header_bits);
        s.record_pq_bits(layout.pq_bits);
        s.record_sq_bits(layout.sq_bits);
        s.record_ecq_bits(layout.ecq_bits);
        s.record_verbatim_bits(layout.verbatim_bits);
        // The compressor has always filed AllZero under type index 1 and
        // Verbatim under 3; reproduce its accounting exactly.
        let block_type = match layout.kind {
            BlockKind::AllZero => 1,
            BlockKind::Verbatim => 3,
            kind => usize::from(paper_block_type(kind, layout.ecb_max)),
        };
        s.record_block(layout.kind, block_type);
        if !matches!(layout.kind, BlockKind::AllZero | BlockKind::Verbatim) {
            // The encoder histograms every point, zeros included.
            let mut counts = std::mem::take(&mut self.counts);
            counts.by_bits[1] += self.block_size as u64 - counts.total();
            s.record_ecq_counts(block_type, &counts);
        }
    }
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
