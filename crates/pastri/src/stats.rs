//! Compression introspection: block-type census, ECQ distributions
//! (Fig. 6), and the output storage breakdown (paper Sec. V-B: "PQ and SQ
//! constitute around 20-30% of PaSTRI's output data size, whereas ECQ
//! constitutes around 70-80%").

use crate::block::BlockKind;
use crate::encoding::EcqCounts;

/// Maximum ECQ bin index tracked in histograms (bin = bits needed).
pub(crate) const MAX_ECQ_BIN: usize = 56;

/// Aggregate statistics over a compression run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressionStats {
    /// Input bytes (original doubles, excluding padding).
    pub original_bytes: u64,
    /// Output bytes (whole container, including per-block framing).
    pub compressed_bytes: u64,
    /// Blocks compressed (including the padded tail block).
    pub blocks: u64,
    /// Blocks per storage kind, in index order: all-zero, pattern-only,
    /// dense, sparse, verbatim.
    pub kind_counts: [u64; 5],
    /// Blocks per paper block type 0–3 (Fig. 6). Verbatim counts as 3.
    pub type_counts: [u64; 4],
    /// Per-block-type histogram of ECQ values by bin (bin i = values
    /// needing i bits; Fig. 6's x-axis).
    pub ecq_hist_by_type: [[u64; MAX_ECQ_BIN]; 4],
    /// Bits of block headers (kind, pattern index, widths).
    pub header_bits: u64,
    /// Bits of quantized pattern values.
    pub pq_bits: u64,
    /// Bits of quantized scaling coefficients.
    pub sq_bits: u64,
    /// Bits of encoded ECQ payloads (dense or sparse).
    pub ecq_bits: u64,
    /// Bits of verbatim-stored raw doubles.
    pub verbatim_bits: u64,
    /// Bits of container framing (global header, per-block lengths).
    pub container_bits: u64,
}

impl Default for CompressionStats {
    fn default() -> Self {
        Self {
            original_bytes: 0,
            compressed_bytes: 0,
            blocks: 0,
            kind_counts: [0; 5],
            type_counts: [0; 4],
            ecq_hist_by_type: [[0; MAX_ECQ_BIN]; 4],
            header_bits: 0,
            pq_bits: 0,
            sq_bits: 0,
            ecq_bits: 0,
            verbatim_bits: 0,
            container_bits: 0,
        }
    }
}

impl CompressionStats {
    /// Merge another stats accumulator into this one (parallel reduce).
    pub fn merge(&mut self, other: &CompressionStats) {
        self.original_bytes += other.original_bytes;
        self.compressed_bytes += other.compressed_bytes;
        self.blocks += other.blocks;
        for k in 0..5 {
            self.kind_counts[k] += other.kind_counts[k];
        }
        for t in 0..4 {
            self.type_counts[t] += other.type_counts[t];
            for b in 0..MAX_ECQ_BIN {
                self.ecq_hist_by_type[t][b] += other.ecq_hist_by_type[t][b];
            }
        }
        self.header_bits += other.header_bits;
        self.pq_bits += other.pq_bits;
        self.sq_bits += other.sq_bits;
        self.ecq_bits += other.ecq_bits;
        self.verbatim_bits += other.verbatim_bits;
        self.container_bits += other.container_bits;
    }

    pub(crate) fn record_block(&mut self, kind: BlockKind, block_type: usize) {
        self.blocks += 1;
        self.kind_counts[kind as usize] += 1;
        self.type_counts[block_type.min(3)] += 1;
    }

    #[cfg(test)]
    pub(crate) fn record_ecq_value(&mut self, block_type: usize, bits: u32) {
        let bin = (bits as usize).min(MAX_ECQ_BIN - 1);
        self.ecq_hist_by_type[block_type.min(3)][bin] += 1;
    }

    /// Adds a block's ECQ census to the histogram of its block type; bins
    /// past the last tracked one fold into it.
    pub(crate) fn record_ecq_counts(&mut self, block_type: usize, counts: &EcqCounts) {
        let hist = &mut self.ecq_hist_by_type[block_type.min(3)];
        for (bits, &n) in counts.by_bits.iter().enumerate() {
            hist[bits.min(MAX_ECQ_BIN - 1)] += n;
        }
    }

    pub(crate) fn record_header_bits(&mut self, bits: u64) {
        self.header_bits += bits;
    }
    pub(crate) fn record_pq_bits(&mut self, bits: u64) {
        self.pq_bits += bits;
    }
    pub(crate) fn record_sq_bits(&mut self, bits: u64) {
        self.sq_bits += bits;
    }
    pub(crate) fn record_ecq_bits(&mut self, bits: u64) {
        self.ecq_bits += bits;
    }
    pub(crate) fn record_verbatim_bits(&mut self, bits: u64) {
        self.verbatim_bits += bits;
    }
    pub(crate) fn record_container_bits(&mut self, bits: u64) {
        self.container_bits += bits;
    }

    /// Compression ratio `original / compressed`.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 0.0;
        }
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// Output bit rate in bits per input double (`64 / ratio`).
    #[must_use]
    pub fn bitrate(&self) -> f64 {
        if self.original_bytes == 0 {
            return 0.0;
        }
        self.compressed_bytes as f64 * 8.0 / (self.original_bytes as f64 / 8.0)
    }

    /// Fractional storage breakdown of the output (Sec. V-B).
    #[must_use]
    pub fn breakdown(&self) -> StorageBreakdown {
        let total = (self.header_bits
            + self.pq_bits
            + self.sq_bits
            + self.ecq_bits
            + self.verbatim_bits
            + self.container_bits) as f64;
        if total == 0.0 {
            return StorageBreakdown::default();
        }
        StorageBreakdown {
            pattern_and_scales: (self.pq_bits + self.sq_bits) as f64 / total,
            ecq: self.ecq_bits as f64 / total,
            bookkeeping: (self.header_bits + self.container_bits) as f64 / total,
            verbatim: self.verbatim_bits as f64 / total,
        }
    }

    /// Combined Fig. 6 histogram across all block types ("Total" panel).
    #[must_use]
    pub fn ecq_hist_total(&self) -> [u64; MAX_ECQ_BIN] {
        let mut out = [0u64; MAX_ECQ_BIN];
        for hist in &self.ecq_hist_by_type {
            for (acc, &count) in out.iter_mut().zip(hist.iter()) {
                *acc += count;
            }
        }
        out
    }
}

/// Per-type statistics view for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockTypeStats {
    pub count: u64,
    pub fraction: f64,
}

impl CompressionStats {
    /// Block-type census as (type, stats) in Fig. 6 order.
    #[must_use]
    pub fn block_types(&self) -> [BlockTypeStats; 4] {
        let total: u64 = self.type_counts.iter().sum();
        std::array::from_fn(|t| BlockTypeStats {
            count: self.type_counts[t],
            fraction: if total == 0 {
                0.0
            } else {
                self.type_counts[t] as f64 / total as f64
            },
        })
    }
}

/// Fractions of the compressed output by content category.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageBreakdown {
    /// PQ + SQ (paper: 20–30 %).
    pub pattern_and_scales: f64,
    /// Encoded ECQ payloads (paper: 70–80 %).
    pub ecq: f64,
    /// Headers and container framing (paper: < 0.5 %).
    pub bookkeeping: f64,
    /// Verbatim-fallback raw data (absent on patterned datasets).
    pub verbatim: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = CompressionStats::default();
        a.record_block(BlockKind::Dense, 1);
        a.record_pq_bits(100);
        a.record_ecq_value(1, 2);
        let mut b = CompressionStats::default();
        b.record_block(BlockKind::Sparse, 3);
        b.record_pq_bits(50);
        b.record_ecq_value(3, 9);
        a.merge(&b);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.pq_bits, 150);
        assert_eq!(a.kind_counts[BlockKind::Dense as usize], 1);
        assert_eq!(a.kind_counts[BlockKind::Sparse as usize], 1);
        assert_eq!(a.ecq_hist_by_type[1][2], 1);
        assert_eq!(a.ecq_hist_by_type[3][9], 1);
    }

    #[test]
    fn ratio_and_bitrate() {
        let stats = CompressionStats {
            original_bytes: 8000,
            compressed_bytes: 500,
            ..Default::default()
        };
        assert!((stats.compression_ratio() - 16.0).abs() < 1e-12);
        assert!((stats.bitrate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let mut s = CompressionStats::default();
        s.record_header_bits(10);
        s.record_pq_bits(200);
        s.record_sq_bits(100);
        s.record_ecq_bits(700);
        s.record_container_bits(5);
        let b = s.breakdown();
        let sum = b.pattern_and_scales + b.ecq + b.bookkeeping + b.verbatim;
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(b.ecq > 0.6);
    }

    #[test]
    fn block_type_fractions() {
        let mut s = CompressionStats::default();
        for _ in 0..3 {
            s.record_block(BlockKind::PatternOnly, 0);
        }
        s.record_block(BlockKind::Dense, 1);
        let types = s.block_types();
        assert_eq!(types[0].count, 3);
        assert!((types[0].fraction - 0.75).abs() < 1e-12);
        assert!((types[1].fraction - 0.25).abs() < 1e-12);
    }
}
