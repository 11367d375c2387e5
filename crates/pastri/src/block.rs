//! Per-block compression and decompression (Algorithm 1 of the paper).
//!
//! Block wire layout (bit-granular, written MSB-first):
//!
//! ```text
//! kind            3 bits   AllZero | PatternOnly | Dense | Sparse | Verbatim
//! -- AllZero: nothing else
//! -- Verbatim: block_size × 64 bits of raw IEEE-754
//! pattern_sb      ⌈log2 num_SB⌉ bits
//! P_b             6 bits
//! S_b             6 bits   (= P_b under the default practical rule)
//! PQ              SB_size × P_b bits (signed)
//! SQ              num_SB × S_b bits (signed)
//! -- PatternOnly: nothing else (all ECQ are zero — "type 0" blocks)
//! EC_b,max        6 bits
//! -- Dense:  block_size tree-encoded ECQ symbols
//! -- Sparse: NOL in ⌈log2(block_size+1)⌉ bits, then per outlier
//!            index (⌈log2 block_size⌉ bits) + value (EC_b,max bits)
//! ```
//!
//! The encoder picks Dense vs Sparse per block by exact bit cost, and
//! falls back to Verbatim whenever quantization would overflow, the data
//! is non-finite, or the coded block would exceed the raw size — so
//! compression never fails and the error bound `|v − v̂| ≤ EB` holds for
//! *every* input (verified point-by-point during encoding; see
//! `verify-and-nudge` below).
//!
//! One walker reads this layout: `walk_block` parses every field and makes
//! every width and index check, handing the fields to a `BlockSink`. It has
//! two sinks: [`decompress_block`] dequantizes into the block, and
//! [`crate::container_bit_stats`] recovers the compressor's bit accounting.

use bitio::{bits_for, BitReader, BitWriter};

use crate::container::{CompressorOptions, EcqRepr, ScaleRule};
use crate::error::DecompressError;
use crate::geometry::BlockGeometry;
use crate::metrics::fit_pattern;
use crate::quant::{Quantizer, ScaleQuantizer};
use crate::stats::CompressionStats;
use crate::encoding::{EcqCounts, EncodingTree};

/// How a block was stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Every value is within `EB` of zero; nothing stored.
    AllZero = 0,
    /// Pattern + scales suffice; all ECQ are zero (paper "type 0").
    PatternOnly = 1,
    /// Pattern + scales + tree-encoded dense ECQ stream.
    Dense = 2,
    /// Pattern + scales + sparse (index, value) outlier list.
    Sparse = 3,
    /// Raw IEEE-754 doubles (non-finite data, quantization overflow, or
    /// the coded form would have been larger).
    Verbatim = 4,
}

impl BlockKind {
    pub(crate) fn from_bits(v: u64) -> Option<Self> {
        Some(match v {
            0 => BlockKind::AllZero,
            1 => BlockKind::PatternOnly,
            2 => BlockKind::Dense,
            3 => BlockKind::Sparse,
            4 => BlockKind::Verbatim,
            _ => return None,
        })
    }
}

/// Compresses one full-sized block into `w`.
///
/// `block.len()` must equal `geom.block_size()` (callers zero-pad partial
/// trailing blocks, mirroring the paper's screened-element handling).
pub(crate) fn compress_block(
    block: &[f64],
    geom: &BlockGeometry,
    quant: &Quantizer,
    opts: &CompressorOptions,
    w: &mut BitWriter,
    stats: Option<&mut CompressionStats>,
) {
    assert_eq!(block.len(), geom.block_size(), "partial block passed to compress_block");
    let start_bits = w.bit_len();
    let kind = compress_block_inner(block, geom, quant, opts, w, stats);
    debug_assert!(w.bit_len() > start_bits || kind == BlockKind::AllZero);
}

fn compress_block_inner(
    block: &[f64],
    geom: &BlockGeometry,
    quant: &Quantizer,
    opts: &CompressorOptions,
    w: &mut BitWriter,
    mut stats: Option<&mut CompressionStats>,
) -> BlockKind {
    let metric = opts.metric;
    let tree = opts.tree;
    let eb = quant.eb();
    let block_size = geom.block_size();

    // Non-finite data can't be quantized: store raw.
    if block.iter().any(|v| !v.is_finite()) {
        write_verbatim(block, w, &mut stats);
        return BlockKind::Verbatim;
    }

    // All-zero (within EB) block: 3 bits total.
    let ext = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if ext <= eb {
        w.write_bits(BlockKind::AllZero as u64, 3);
        if let Some(s) = stats.as_deref_mut() {
            s.record_header_bits(3);
            s.record_block(BlockKind::AllZero, 1);
        }
        return BlockKind::AllZero;
    }

    // Pattern fit + quantization. Overflow anywhere -> verbatim.
    let fit = {
        let _stage = telemetry::span("compress.pattern_select");
        fit_pattern(metric, geom, block)
    };
    let sbs = geom.subblock_size;
    let pattern = &block[fit.pattern_sb * sbs..(fit.pattern_sb + 1) * sbs];
    let quantize_stage = telemetry::span("compress.quantize");
    let Some((pq, pb)) = quant.quantize_pattern(pattern) else {
        drop(quantize_stage);
        write_verbatim(block, w, &mut stats);
        return BlockKind::Verbatim;
    };
    let sb_bits = match opts.scale_rule {
        ScaleRule::Practical => pb,
        ScaleRule::NaiveEbBins => {
            // Scale bins of width 2·EB over [-1, 1]: max code 1/(2·EB).
            let max_code = (1.0 / (2.0 * eb)).ceil().min(2f64.powi(61)) as i64;
            bitio::signed_width(max_code)
        }
    };
    let sq_quant = ScaleQuantizer::new(sb_bits);
    let sq: Vec<i64> = fit.scales.iter().map(|&s| sq_quant.quantize(s)).collect();
    let shat: Vec<f64> = sq.iter().map(|&q| sq_quant.dequantize(q)).collect();
    let phat: Vec<f64> = pq.iter().map(|&q| quant.dequantize(q)).collect();
    drop(quantize_stage);

    let _ecq_stage = telemetry::span("compress.ecq_encode");
    // ECQ with verify-and-nudge: the residual is quantized against the
    // *reconstructed* prediction, then the decoded value is checked
    // point-by-point; any floating-point corner case gets the code nudged
    // by ±1, and if that still fails the block goes verbatim. The same
    // pass takes the census that prices every representation below, so
    // the stream is walked once before it is emitted.
    let mut ecq = Vec::with_capacity(block_size);
    let mut counts = EcqCounts::default();
    for (j, sh) in shat.iter().enumerate() {
        let sub = &block[j * sbs..(j + 1) * sbs];
        for (&v, &ph) in sub.iter().zip(&phat) {
            let pred = sh * ph;
            let Some(mut q) = quant.quantize(v - pred) else {
                write_verbatim(block, w, &mut stats);
                return BlockKind::Verbatim;
            };
            if (v - (pred + quant.dequantize(q))).abs() > eb {
                let qq = if v > pred + quant.dequantize(q) { q + 1 } else { q - 1 };
                if (v - (pred + quant.dequantize(qq))).abs() <= eb {
                    q = qq;
                } else {
                    write_verbatim(block, w, &mut stats);
                    return BlockKind::Verbatim;
                }
            }
            counts.record(q);
            ecq.push(q);
        }
    }
    let ecb_max = counts.max_bits().max(2);

    // Fixed header + PQ + SQ costs (everything but the ECQ payload).
    let pat_sb_bits = u64::from(bits_for(geom.num_subblocks as u64));
    let base_cost = 3
        + pat_sb_bits
        + 12
        + sbs as u64 * u64::from(pb)
        + geom.num_subblocks as u64 * u64::from(sq_quant.bits());

    let nol = counts.nonzero();
    let all_zero_ecq = nol == 0;
    let dense_cost = tree.cost_from_counts(&counts, ecb_max);
    let idx_bits = u64::from(bits_for(block_size as u64));
    let count_bits = u64::from(bits_for(block_size as u64 + 1));
    let sparse_cost = count_bits + nol * (idx_bits + u64::from(ecb_max));

    let (kind, payload_cost) = if all_zero_ecq {
        (BlockKind::PatternOnly, 0)
    } else {
        match opts.ecq_repr {
            EcqRepr::DenseOnly => (BlockKind::Dense, 6 + dense_cost),
            EcqRepr::SparseOnly => (BlockKind::Sparse, 6 + sparse_cost),
            EcqRepr::Auto => {
                if sparse_cost < dense_cost {
                    (BlockKind::Sparse, 6 + sparse_cost)
                } else {
                    (BlockKind::Dense, 6 + dense_cost)
                }
            }
        }
    };

    // Incompressible block: raw storage is cheaper.
    if base_cost + payload_cost >= 3 + block_size as u64 * 64 {
        write_verbatim(block, w, &mut stats);
        return BlockKind::Verbatim;
    }

    // ---- Emit ----
    w.write_bits(kind as u64, 3);
    w.write_bits(fit.pattern_sb as u64, bits_for(geom.num_subblocks as u64));
    w.write_bits(u64::from(pb), 6);
    w.write_bits(u64::from(sq_quant.bits()), 6);
    for &q in &pq {
        w.write_signed(q, pb);
    }
    for &q in &sq {
        w.write_signed(q, sq_quant.bits());
    }
    match kind {
        BlockKind::PatternOnly => {}
        BlockKind::Dense => {
            w.write_bits(u64::from(ecb_max), 6);
            tree.encode_stream(&ecq, ecb_max, w);
        }
        BlockKind::Sparse => {
            w.write_bits(u64::from(ecb_max), 6);
            w.write_bits(nol, bits_for(block_size as u64 + 1));
            for (i, &q) in ecq.iter().enumerate() {
                if q != 0 {
                    w.write_bits(i as u64, bits_for(block_size as u64));
                    w.write_signed(q, ecb_max);
                }
            }
        }
        BlockKind::AllZero | BlockKind::Verbatim => unreachable!(),
    }

    if let Some(s) = stats {
        s.record_header_bits(3 + pat_sb_bits + 12 + if kind == BlockKind::PatternOnly { 0 } else { 6 });
        s.record_pq_bits(sbs as u64 * u64::from(pb));
        s.record_sq_bits(geom.num_subblocks as u64 * u64::from(sq_quant.bits()));
        let ecq_payload = match kind {
            BlockKind::PatternOnly => 0,
            BlockKind::Dense => dense_cost,
            BlockKind::Sparse => sparse_cost,
            _ => unreachable!(),
        };
        s.record_ecq_bits(ecq_payload);
        let block_type = usize::from(paper_block_type(kind, ecb_max));
        s.record_block(kind, block_type);
        s.record_ecq_counts(block_type, &counts);
    }
    kind
}

fn write_verbatim(block: &[f64], w: &mut BitWriter, stats: &mut Option<&mut CompressionStats>) {
    w.write_bits(BlockKind::Verbatim as u64, 3);
    for &v in block {
        w.write_bits(v.to_bits(), 64);
    }
    if let Some(s) = stats.as_deref_mut() {
        s.record_header_bits(3);
        s.record_verbatim_bits(block.len() as u64 * 64);
        s.record_block(BlockKind::Verbatim, 3);
    }
}

/// The paper's block taxonomy (Fig. 6): type 0 = all-zero ECQ, type 1 =
/// `EC_{b,max} = 2`, type 2 = `3..=6`, type 3 = `> 6`.
#[must_use]
pub(crate) fn paper_block_type(kind: BlockKind, ecb_max: u32) -> u8 {
    match kind {
        BlockKind::AllZero | BlockKind::PatternOnly => 0,
        _ => match ecb_max {
            0..=2 => 1,
            3..=6 => 2,
            _ => 3,
        },
    }
}

/// A block's kind and the bits each of its fields took, as [`walk_block`]
/// measured them on the wire.
pub(crate) struct BlockLayout {
    pub(crate) kind: BlockKind,
    /// `EC_{b,max}`; 0 for kinds that carry no ECQ payload.
    pub(crate) ecb_max: u32,
    /// Kind tag, pattern index and width fields.
    pub(crate) header_bits: u64,
    pub(crate) pq_bits: u64,
    pub(crate) sq_bits: u64,
    /// Dense stream, or sparse count plus outlier list.
    pub(crate) ecq_bits: u64,
    pub(crate) verbatim_bits: u64,
}

/// What [`walk_block`] hands each field to, in wire order, as it reads a
/// block. The walker owns the layout and every check on it; a sink only
/// consumes. Every method defaults to ignoring its field.
pub(crate) trait BlockSink {
    /// Value `i` of a Verbatim block.
    fn verbatim(&mut self, _i: usize, _v: f64) {}
    /// The next pattern code (PQ), in point order.
    fn pattern(&mut self, _q: i64) {}
    /// The scale code (SQ) of sub-block `j`; every pattern code has
    /// already arrived.
    fn scale(&mut self, _j: usize, _q: i64, _sq_quant: &ScaleQuantizer) {}
    /// The dense ECQ stream, one code per point.
    fn dense(&mut self, _ecq: &[i64]) {}
    /// A sparse outlier: point `idx` carries ECQ code `q`.
    fn outlier(&mut self, _idx: usize, _q: i64) {}
    /// The block has been read in full.
    fn end(&mut self, _layout: &BlockLayout) {}
}

/// Reads one block's bit layout from `r` — the only reader of it — and
/// feeds every field to `sink`. [`decompress_block`] and
/// [`crate::container_bit_stats`] are its two sinks; a compressed-domain
/// consumer gets P, S and the sparse ECQ the same way, without building
/// the block.
pub(crate) fn walk_block<S: BlockSink>(
    r: &mut BitReader<'_>,
    geom: &BlockGeometry,
    tree: EncodingTree,
    sink: &mut S,
) -> Result<(), DecompressError> {
    let start = r.bit_pos();
    let kind = BlockKind::from_bits(r.read_bits(3)?)
        .ok_or(DecompressError::corrupt("unknown block kind"))?;
    let block_size = geom.block_size();
    let mut layout = BlockLayout {
        kind,
        ecb_max: 0,
        header_bits: 3,
        pq_bits: 0,
        sq_bits: 0,
        ecq_bits: 0,
        verbatim_bits: 0,
    };
    match kind {
        BlockKind::AllZero => {}
        BlockKind::Verbatim => {
            for i in 0..block_size {
                sink.verbatim(i, f64::from_bits(r.read_bits(64)?));
            }
            layout.verbatim_bits = block_size as u64 * 64;
        }
        BlockKind::PatternOnly | BlockKind::Dense | BlockKind::Sparse => {
            let sbs = geom.subblock_size;
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
                sink.pattern(r.read_signed(pb)?);
            }
            let sq_quant = ScaleQuantizer::new(sb_bits);
            for j in 0..geom.num_subblocks {
                sink.scale(j, r.read_signed(sq_quant.bits())?, &sq_quant);
            }
            layout.pq_bits = sbs as u64 * u64::from(pb);
            layout.sq_bits = geom.num_subblocks as u64 * u64::from(sq_quant.bits());

            if kind != BlockKind::PatternOnly {
                let ecb_max = r.read_bits(6)? as u32;
                if !(1..=62).contains(&ecb_max) {
                    return Err(DecompressError::corrupt("EC bit width out of range"));
                }
                layout.ecb_max = ecb_max;
                let ecq_start = r.bit_pos();
                if kind == BlockKind::Dense {
                    let mut ecq = Vec::with_capacity(block_size);
                    tree.decode_stream(block_size, ecb_max, r, &mut ecq)?;
                    sink.dense(&ecq);
                } else {
                    let nol = r.read_bits(bits_for(block_size as u64 + 1))? as usize;
                    if nol > block_size {
                        return Err(DecompressError::corrupt("outlier count exceeds block size"));
                    }
                    for _ in 0..nol {
                        let idx = r.read_bits(bits_for(block_size as u64))? as usize;
                        if idx >= block_size {
                            return Err(DecompressError::corrupt("outlier index out of range"));
                        }
                        sink.outlier(idx, r.read_signed(ecb_max)?);
                    }
                }
                layout.ecq_bits = r.bit_pos() - ecq_start;
            }
            layout.header_bits =
                r.bit_pos() - start - layout.pq_bits - layout.sq_bits - layout.ecq_bits;
        }
    }
    sink.end(&layout);
    Ok(())
}

/// The decode sink: dequantizes each field straight into the block.
struct DecodeSink<'a> {
    quant: &'a Quantizer,
    out: &'a mut [f64],
    /// Dequantized pattern, filled before any scale arrives.
    phat: Vec<f64>,
}

impl BlockSink for DecodeSink<'_> {
    fn verbatim(&mut self, i: usize, v: f64) {
        self.out[i] = v;
    }

    fn pattern(&mut self, q: i64) {
        self.phat.push(self.quant.dequantize(q));
    }

    fn scale(&mut self, j: usize, q: i64, sq_quant: &ScaleQuantizer) {
        // Prediction row `j` = its scale times the pattern.
        let sh = sq_quant.dequantize(q);
        let sbs = self.phat.len();
        for (o, &p) in self.out[j * sbs..(j + 1) * sbs].iter_mut().zip(&self.phat) {
            *o = sh * p;
        }
    }

    fn dense(&mut self, ecq: &[i64]) {
        for (o, &q) in self.out.iter_mut().zip(ecq) {
            *o += self.quant.dequantize(q);
        }
    }

    fn outlier(&mut self, idx: usize, q: i64) {
        self.out[idx] += self.quant.dequantize(q);
    }

    fn end(&mut self, layout: &BlockLayout) {
        if layout.kind == BlockKind::AllZero {
            self.out.fill(0.0);
        }
    }
}

/// Decompresses one block from `r` into `out`.
///
/// `out.len()` must equal `geom.block_size()`.
pub(crate) fn decompress_block(
    r: &mut BitReader<'_>,
    geom: &BlockGeometry,
    quant: &Quantizer,
    tree: EncodingTree,
    out: &mut [f64],
) -> Result<(), DecompressError> {
    assert_eq!(out.len(), geom.block_size());
    let mut sink = DecodeSink {
        quant,
        out,
        phat: Vec::with_capacity(geom.subblock_size),
    };
    walk_block(r, geom, tree, &mut sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ScalingMetric;

    fn geom() -> BlockGeometry {
        BlockGeometry::new(6, 8)
    }

    fn roundtrip_block(block: &[f64], eb: f64) -> (Vec<f64>, BlockKind, usize) {
        let g = geom();
        let quant = Quantizer::new(eb);
        let mut w = BitWriter::new();
        let mut stats = CompressionStats::default();
        compress_block(block, &g, &quant, &CompressorOptions::default(), &mut w, Some(&mut stats));
        let kind_of = |s: &CompressionStats| {
            let kinds = [
                BlockKind::AllZero,
                BlockKind::PatternOnly,
                BlockKind::Dense,
                BlockKind::Sparse,
                BlockKind::Verbatim,
            ];
            kinds
                .into_iter()
                .find(|&k| s.kind_counts[k as usize] > 0)
                .unwrap()
        };
        let kind = kind_of(&stats);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0.0; g.block_size()];
        decompress_block(&mut r, &g, &quant, EncodingTree::Tree5, &mut out).unwrap();
        (out, kind, bytes.len())
    }

    fn assert_within(a: &[f64], b: &[f64], eb: f64) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= eb, "point {i}: {x} vs {y} (eb {eb})");
        }
    }

    #[test]
    fn all_zero_block_costs_one_byte() {
        let block = vec![0.0; 48];
        let (out, kind, bytes) = roundtrip_block(&block, 1e-10);
        assert_eq!(kind, BlockKind::AllZero);
        assert_eq!(bytes, 1);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sub_eb_noise_is_all_zero() {
        let block: Vec<f64> = (0..48).map(|i| 1e-12 * (i as f64).sin()).collect();
        let (out, kind, _) = roundtrip_block(&block, 1e-10);
        assert_eq!(kind, BlockKind::AllZero);
        assert_within(&block, &out, 1e-10);
    }

    #[test]
    fn perfectly_scaled_block_is_pattern_only() {
        let pat: Vec<f64> = (0..8).map(|i| ((i as f64) * 1.1).sin() * 1e-6).collect();
        let mut block = Vec::new();
        for j in 0..6 {
            let s = [1.0, -0.5, 0.25, 0.7, -0.1, 0.0][j];
            block.extend(pat.iter().map(|p| p * s));
        }
        let (out, kind, bytes) = roundtrip_block(&block, 1e-10);
        assert!(
            kind == BlockKind::PatternOnly || kind == BlockKind::Sparse,
            "kind {kind:?}"
        );
        assert_within(&block, &out, 1e-10);
        // 48 doubles = 384 raw bytes; should compress far below that.
        assert!(bytes < 80, "bytes {bytes}");
    }

    #[test]
    fn deviations_produce_dense_or_sparse() {
        let pat: Vec<f64> = (0..8).map(|i| ((i as f64) * 0.9).cos() * 1e-6).collect();
        let mut block = Vec::new();
        for j in 0..6 {
            let s = 1.0 - j as f64 * 0.15;
            block.extend(pat.iter().enumerate().map(|(i, p)| {
                p * s + if (i + j) % 5 == 0 { 3.3e-10 } else { 0.0 }
            }));
        }
        let (out, kind, _) = roundtrip_block(&block, 1e-10);
        assert!(matches!(kind, BlockKind::Dense | BlockKind::Sparse));
        assert_within(&block, &out, 1e-10);
    }

    #[test]
    fn nan_and_inf_go_verbatim_exactly() {
        let mut block = vec![1.0e-6; 48];
        block[7] = f64::NAN;
        block[13] = f64::INFINITY;
        block[14] = f64::NEG_INFINITY;
        let (out, kind, _) = roundtrip_block(&block, 1e-10);
        assert_eq!(kind, BlockKind::Verbatim);
        assert!(out[7].is_nan());
        assert_eq!(out[13], f64::INFINITY);
        assert_eq!(out[14], f64::NEG_INFINITY);
        for i in [0usize, 1, 20, 47] {
            assert_eq!(out[i], block[i]);
        }
    }

    #[test]
    fn huge_dynamic_range_goes_verbatim() {
        // v/2EB overflows the safe code range -> verbatim, still exact.
        let mut block = vec![0.0; 48];
        block[0] = 1e300;
        block[1] = -1e299;
        let (out, kind, _) = roundtrip_block(&block, 1e-10);
        assert_eq!(kind, BlockKind::Verbatim);
        assert_eq!(out[0], 1e300);
        assert_eq!(out[1], -1e299);
    }

    #[test]
    fn error_bound_holds_on_random_data() {
        // Unstructured noise: no pattern to exploit, but the bound must hold.
        let mut x = 0x1234_5678u64;
        let block: Vec<f64> = (0..48)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 16) as f64 / 2f64.powi(48) - 0.5) * 2e-6
            })
            .collect();
        for &eb in &[1e-8, 1e-10, 1e-12] {
            let (out, _, _) = roundtrip_block(&block, eb);
            assert_within(&block, &out, eb);
        }
    }

    #[test]
    fn sparse_beats_dense_for_isolated_outliers() {
        // One large outlier in an otherwise perfect block: with Tree5 the
        // dense stream pays 1 bit × block_size anyway; sparse pays
        // ~(idx+val) once plus the count. For 48 points dense wins;
        // what matters is that the choice is the cheaper one.
        let pat: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) * 1e-7).collect();
        let mut block = Vec::new();
        for j in 0..6 {
            let s = 1.0 - j as f64 * 0.1;
            block.extend(pat.iter().map(|p| p * s));
        }
        block[17] += 5e-7; // big outlier -> large ecb_max
        let g = geom();
        let quant = Quantizer::new(1e-10);
        let mut w_auto = BitWriter::new();
        compress_block(&block, &g, &quant, &CompressorOptions::default(), &mut w_auto, None);
        // Whichever representation was chosen, it round-trips within EB.
        let bytes = w_auto.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0.0; g.block_size()];
        decompress_block(&mut r, &g, &quant, EncodingTree::Tree5, &mut out).unwrap();
        assert_within(&block, &out, 1e-10);
    }

    #[test]
    fn paper_block_types() {
        assert_eq!(paper_block_type(BlockKind::AllZero, 1), 0);
        assert_eq!(paper_block_type(BlockKind::PatternOnly, 2), 0);
        assert_eq!(paper_block_type(BlockKind::Dense, 2), 1);
        assert_eq!(paper_block_type(BlockKind::Dense, 5), 2);
        assert_eq!(paper_block_type(BlockKind::Sparse, 9), 3);
    }

    #[test]
    fn truncated_stream_errors() {
        let pat: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) * 1e-7).collect();
        let mut block = Vec::new();
        for j in 0..6 {
            block.extend(pat.iter().map(|p| p * (1.0 - j as f64 * 0.1)));
        }
        let g = geom();
        let quant = Quantizer::new(1e-10);
        let mut w = BitWriter::new();
        compress_block(&block, &g, &quant, &CompressorOptions::default(), &mut w, None);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes[..bytes.len() / 2]);
        let mut out = vec![0.0; g.block_size()];
        let err = decompress_block(&mut r, &g, &quant, EncodingTree::Tree5, &mut out);
        assert!(err.is_err());
    }

    #[test]
    fn all_metrics_and_trees_roundtrip() {
        let pat: Vec<f64> = (0..8).map(|i| ((i as f64) * 0.8).sin() * 2e-6 + 1e-7).collect();
        let mut block = Vec::new();
        for j in 0..6 {
            let s = 1.0 - j as f64 * 0.13;
            block.extend(pat.iter().enumerate().map(|(i, p)| p * s + ((i * j) as f64) * 1e-11));
        }
        let g = geom();
        let quant = Quantizer::new(1e-10);
        for metric in ScalingMetric::ALL {
            for tree in [
                EncodingTree::Tree1,
                EncodingTree::Tree2,
                EncodingTree::Tree3,
                EncodingTree::Tree4,
                EncodingTree::Tree5,
                EncodingTree::FixedLength,
            ] {
                let mut w = BitWriter::new();
                let opts = CompressorOptions {
                    metric,
                    tree,
                    ..Default::default()
                };
                compress_block(&block, &g, &quant, &opts, &mut w, None);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                let mut out = vec![0.0; g.block_size()];
                decompress_block(&mut r, &g, &quant, tree, &mut out).unwrap();
                assert_within(&block, &out, 1e-10);
            }
        }
    }
}
