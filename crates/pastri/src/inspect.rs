//! Container inspection without full decompression.
//!
//! Both entry points read a container through the decoder's own walk,
//! [`walk_container`]: the header (so the header CRC, error bound, block
//! count and size ceiling are validated exactly as `decompress` validates
//! them), every frame with its CRC, the v3 parity section and the end of
//! the input. Each block's bit layout is then read with [`walk_block`],
//! which never dequantizes a value. [`inspect`] reports the census —
//! sizes, error bound, geometry, per-kind block counts;
//! [`container_bit_stats`] counts where the container's bits go. That
//! walk is the crate's one bit accounting: the compressor keeps none.

use bitio::BitReader;

use crate::block::{paper_block_type, walk_block, BlockKind, BlockLayout, BlockSink};
use crate::container::{walk_container, Walked};
use crate::encoding::{EcqCounts, EncodingTree};
use crate::error::DecompressError;
use crate::geometry::BlockGeometry;
use crate::metrics::ScalingMetric;
use crate::stats::CompressionStats;

/// Everything a container's header and blocks reveal.
#[derive(Debug, Clone)]
pub struct ContainerInfo {
    /// Container format version (1 = legacy checksum-free, 2 = CRC32
    /// over header and each block payload, the one layout written, 3 =
    /// read-only v2 plus a Reed–Solomon parity section).
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

/// Parses a PaSTRI container's metadata. Reads every byte, as
/// [`container_bit_stats`] does, and accepts exactly the containers it
/// accepts: a container with damaged framing, a failing CRC or bytes
/// after its last section is refused, as `decompress` refuses it.
pub fn inspect(bytes: &[u8]) -> Result<ContainerInfo, DecompressError> {
    let (walk, stats) = census(bytes)?;
    let header = walk.header;
    Ok(ContainerInfo {
        version: header.version,
        error_bound: header.eb,
        geometry: header.geometry,
        original_len: header.original_len,
        num_blocks: header.num_blocks,
        container_bytes: bytes.len(),
        metric: header.metric,
        tree: header.tree,
        kind_counts: stats.kind_counts,
        payload_bytes: walk.frames.iter().map(|f| f.payload.len() as u64).sum(),
        parity_group: header.parity_group,
        parity_shards: header.parity_shards,
        parity_bytes: walk.parity_bytes as u64,
    })
}

/// The [`CompressionStats`] of a container, read from its bytes: the
/// block census by kind and by paper type (Fig. 6), the ECQ histograms
/// and the Sec. V-B storage breakdown, down to the container's own
/// framing bits. This is the only place the crate counts them; the
/// compressor writes bytes and keeps no accounting, so callers compress
/// and then ask this function, as `pastri inspect` does.
///
/// Decodes structure (widths, kinds, ECQ symbols) but never dequantizes a
/// value, so it is cheaper than decompression and needs no error-bound
/// arithmetic.
pub fn container_bit_stats(bytes: &[u8]) -> Result<CompressionStats, DecompressError> {
    census(bytes).map(|(_, stats)| stats)
}

/// The walk of the container `bytes` and the bit census of its blocks:
/// what [`inspect`] and [`container_bit_stats`] both read.
fn census(bytes: &[u8]) -> Result<(Walked<'_>, CompressionStats), DecompressError> {
    let walk = walk_container(bytes)?;
    let mut stats = CompressionStats::default();
    let mut payload_bits = 0;
    for (b, frame) in walk.frames.iter().enumerate() {
        payload_bits += frame.payload.len() as u64 * 8;
        record_block_bits(&mut stats, frame.payload, &walk.header.geometry, walk.header.tree)
            .map_err(|e| e.with_block(b).at_offset(frame.offset))?;
    }
    stats.compressed_bytes = bytes.len() as u64;
    stats.original_bytes = (walk.header.original_len * 8) as u64;
    stats.record_container_bits(bytes.len() as u64 * 8 - payload_bits);
    Ok((walk, stats))
}

/// Files one block payload into `stats`: its kind and paper type, the
/// bits of each of its fields and its ECQ census. [`container_bit_stats`]
/// runs it on every frame.
pub(crate) fn record_block_bits(
    stats: &mut CompressionStats,
    payload: &[u8],
    geometry: &BlockGeometry,
    tree: EncodingTree,
) -> Result<(), DecompressError> {
    let mut sink = StatsSink {
        stats,
        counts: EcqCounts::default(),
        block_size: geometry.block_size(),
    };
    walk_block(&mut BitReader::new(payload), geometry, tree, &mut sink).map(|_| ())
}

/// The bit-accounting sink of one block.
struct StatsSink<'a> {
    stats: &'a mut CompressionStats,
    /// ECQ census of the block.
    counts: EcqCounts,
    block_size: usize,
}

impl BlockSink for StatsSink<'_> {
    fn ecq(&mut self, _idx: usize, q: i64) {
        self.counts.record(q);
    }

    fn end(&mut self, layout: &BlockLayout) {
        let s = &mut *self.stats;
        s.record_header_bits(layout.header_bits);
        s.record_pq_bits(layout.pq_bits);
        s.record_sq_bits(layout.sq_bits);
        s.record_ecq_bits(layout.ecq_bits);
        s.record_verbatim_bits(layout.verbatim_bits);
        let block_type = usize::from(paper_block_type(layout.kind, layout.ecb_max));
        s.record_block(layout.kind, block_type);
        if !matches!(layout.kind, BlockKind::AllZero | BlockKind::Verbatim) {
            // The histogram counts every point, zeros included.
            self.counts.by_bits[1] += self.block_size as u64 - self.counts.total();
            s.record_ecq_counts(block_type, &self.counts);
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

        let bytes = c.compress(&data);
        let stats = container_bit_stats(&bytes).unwrap();
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, 2);
        assert_eq!((info.parity_group, info.parity_shards, info.parity_bytes), (0, 0, 0));
        // The golden v3 container holds the blocks today's compressor
        // writes for its original, plus a parity section.
        let original: Vec<f64> = include_bytes!("../../../tests/golden/v1_original.f64")
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let golden = Compressor::new(BlockGeometry::new(9, 9), 1e-10).compress(&original);
        let golden = inspect(&golden).unwrap();
        let v3 = inspect(include_bytes!("../../../tests/golden/v3_container.pastri")).unwrap();
        assert_eq!((v3.version, v3.parity_group, v3.parity_shards), (3, 8, 2));
        assert!(v3.parity_bytes > 0);
        assert_eq!(v3.kind_counts, golden.kind_counts);
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

    /// The golden containers' accounting, as `pastri inspect` prints it.
    /// Both hold the same five blocks; the v3 one adds a parity section,
    /// which counts as bookkeeping.
    #[test]
    fn container_bit_stats_pins_the_golden_containers() {
        let v1 = &include_bytes!("../../../tests/golden/v1_container.pastri")[..];
        let v3 = &include_bytes!("../../../tests/golden/v3_container.pastri")[..];
        for (fixture, bookkeeping_bits) in [(v1, 307), (v3, 1307)] {
            let s = container_bit_stats(fixture).unwrap();
            assert_eq!(s.kind_counts, [0, 3, 0, 2, 0]);
            assert_eq!(s.pq_bits + s.sq_bits, 1044);
            assert_eq!(s.ecq_bits, 41);
            assert_eq!(s.header_bits + s.container_bits, bookkeeping_bits);
            assert_eq!(s.verbatim_bits, 0);
            assert_eq!(s.compressed_bytes, fixture.len() as u64);
        }
    }

    #[test]
    fn container_bit_stats_rejects_garbage() {
        assert!(matches!(
            container_bit_stats(b"nope"),
            Err(DecompressError::BadMagic { format: "container" })
        ));
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-8);
        let bytes = c.compress(&[1e-5; 8]);
        assert!(container_bit_stats(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn inspect_rejects_garbage() {
        assert!(matches!(
            inspect(b"nope"),
            Err(DecompressError::BadMagic { format: "container" })
        ));
        let geom = BlockGeometry::new(2, 2);
        let c = Compressor::new(geom, 1e-8);
        let bytes = c.compress(&[1e-5; 8]);
        assert!(inspect(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn inspect_refuses_trailing_bytes_as_decompress_does() {
        let geom = BlockGeometry::new(2, 4);
        let c = Compressor::new(geom, 1e-8);
        let a = c.compress(&[1e-5; 8]);
        let mut joined = a.clone();
        joined.extend_from_slice(&c.compress(&[2e-5; 8]));
        assert_eq!(inspect(&a).unwrap().container_bytes, a.len());
        let refusal = crate::decompress(&joined).unwrap_err();
        let trailing = DecompressError::corrupt("trailing bytes after container");
        assert_eq!(refusal, trailing.at_offset(a.len() as u64));
        assert_eq!(inspect(&joined).unwrap_err(), refusal);
        assert_eq!(container_bit_stats(&joined).unwrap_err(), refusal);
    }

    #[test]
    fn inspect_is_cheap_for_all_zero() {
        let geom = BlockGeometry::new(10, 100);
        let c = Compressor::new(geom, 1e-10);
        let bytes = c.compress(&vec![0.0; 100_000]);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.kind_counts[0], 100); // all AllZero
        assert_eq!(info.num_blocks, 100);
        // Fig. 6 files an all-zero block under paper type 0.
        assert_eq!(container_bit_stats(&bytes).unwrap().block_types()[0].count, 100);
    }
}
