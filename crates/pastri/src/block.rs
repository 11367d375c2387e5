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
//! two sinks: [`decompress_blocks`] dequantizes into the block, and
//! [`crate::container_bit_stats`] counts its bits, the crate's only bit
//! accounting.
//!
//! On the decode path the dense ECQ stream never lands in a buffer. The
//! walker stops at it and hands over its cursor; [`decompress_blocks`]
//! then decodes the Tree 5 streams of a batch two at a time in one
//! interleaved loop (see `encoding::walk_pair`), adding each value into
//! its row as it decodes it.

use bitio::{bits_for, BitReader, BitWriter};

use crate::container::{CompressorOptions, EcqRepr, ScaleRule};
use crate::encoding::{walk_pair, EcqCensus, EcqCounts, EncodingTree, Prefix3Walk};
use crate::error::DecompressError;
use crate::geometry::BlockGeometry;
use crate::metrics::{er_scan, fit_pattern, fit_values, ScalingMetric};
use crate::quant::{Quantizer, ScaleQuantizer};
use crate::simd::{quantize_row, Simd};

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

/// Compresses one full-sized block into `w` and returns the kind it
/// wrote.
///
/// `block.len()` must equal `geom.block_size()` (callers zero-pad partial
/// trailing blocks, mirroring the paper's screened-element handling).
pub(crate) fn compress_block(
    block: &[f64],
    geom: &BlockGeometry,
    quant: &Quantizer,
    opts: &CompressorOptions,
    w: &mut BitWriter,
) -> BlockKind {
    assert_eq!(block.len(), geom.block_size(), "partial block passed to compress_block");
    let start_bits = w.bit_len();
    let kind = Simd::detect().compress_block(block, geom, quant, opts, w);
    debug_assert!(w.bit_len() > start_bits || kind == BlockKind::AllZero);
    kind
}

/// [`compress_block`]'s body, compiled once per [`Simd`] build with the
/// ER scan, the ECQ row kernel and the ECQ emitter inlined: call it
/// through [`Simd::compress_block`].
#[inline(always)]
pub(crate) fn compress_block_inner(
    block: &[f64],
    geom: &BlockGeometry,
    quant: &Quantizer,
    opts: &CompressorOptions,
    w: &mut BitWriter,
) -> BlockKind {
    let metric = opts.metric;
    let tree = opts.tree;
    let eb = quant.eb();
    let block_size = geom.block_size();
    let sbs = geom.subblock_size;

    // One pass over the block finds each sub-block's extremum (ER's
    // metric), the block's, and with it whether every value is finite.
    let select_stage = telemetry::span("compress.pattern_select");
    let scan = er_scan(geom, block);
    // Non-finite data can't be quantized: store raw.
    if !scan.is_finite() {
        drop(select_stage);
        write_verbatim(block, w);
        return BlockKind::Verbatim;
    }
    // All-zero (within EB) block: 3 bits total.
    if scan.ext() <= eb {
        drop(select_stage);
        w.write_bits(BlockKind::AllZero as u64, 3);
        return BlockKind::AllZero;
    }
    let fit = match metric {
        ScalingMetric::Er => fit_values(metric, geom, block, &scan.values),
        _ => fit_pattern(metric, geom, block),
    };
    drop(select_stage);

    // Pattern quantization. Overflow anywhere -> verbatim.
    let pattern = &block[fit.pattern_sb * sbs..(fit.pattern_sb + 1) * sbs];
    let quantize_stage = telemetry::span("compress.quantize");
    let Some((pq, pb)) = quant.quantize_pattern(pattern) else {
        drop(quantize_stage);
        write_verbatim(block, w);
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
    // ECQ against the *reconstructed* prediction, verified point by point
    // (see `simd`): one sub-block row at a time, taking the census
    // that prices every representation below, so the stream is walked
    // once before it is emitted. A point no code within EB reconstructs
    // sends the block verbatim.
    let mut ecq = vec![0i64; block_size];
    let mut census = EcqCensus::default();
    let rows = ecq.chunks_exact_mut(sbs).zip(block.chunks_exact(sbs));
    for ((codes, row), &sh) in rows.zip(&shat) {
        let Some(row_census) = quantize_row(row, &phat, sh, quant, codes) else {
            write_verbatim(block, w);
            return BlockKind::Verbatim;
        };
        census.merge(&row_census);
    }
    let ecb_max = census.max_bits.max(2);

    // Fixed header + PQ + SQ costs (everything but the ECQ payload).
    let base_cost = 3
        + u64::from(bits_for(geom.num_subblocks as u64))
        + 12
        + sbs as u64 * u64::from(pb)
        + geom.num_subblocks as u64 * u64::from(sq_quant.bits());

    let nol = census.nonzero();
    let all_zero_ecq = nol == 0;
    // Tree 4's price needs every value's bin.
    let dense_cost = tree
        .cost_from_census(&census, ecb_max)
        .unwrap_or_else(|| tree.cost_from_counts(&EcqCounts::of(&ecq), ecb_max));
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
        write_verbatim(block, w);
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
            write_outliers(&ecq, bits_for(block_size as u64), ecb_max, w);
        }
        BlockKind::AllZero | BlockKind::Verbatim => unreachable!(),
    }

    kind
}

/// Writes a Sparse block's outlier list: the index and value of each
/// non-zero code, in order. One pass per 64 codes gathers which are
/// non-zero into a bit mask, with no branch on their values, and only
/// those are written.
#[inline(always)]
fn write_outliers(ecq: &[i64], idx_bits: u32, ecb_max: u32, w: &mut BitWriter) {
    for (c, codes) in ecq.chunks(64).enumerate() {
        let mut nonzero = codes
            .iter()
            .enumerate()
            .fold(0u64, |mask, (j, &q)| mask | u64::from(q != 0) << j);
        while nonzero != 0 {
            let i = c * 64 + nonzero.trailing_zeros() as usize;
            nonzero &= nonzero - 1;
            w.write_bits(i as u64, idx_bits);
            w.write_signed(ecq[i], ecb_max);
        }
    }
}

fn write_verbatim(block: &[f64], w: &mut BitWriter) {
    w.write_bits(BlockKind::Verbatim as u64, 3);
    for &v in block {
        w.write_bits(v.to_bits(), 64);
    }
}

/// The paper's block taxonomy (Fig. 6): type 0 = all-zero ECQ, type 1 =
/// `EC_{b,max} = 2`, type 2 = `3..=6`, type 3 = `> 6`. An all-zero block
/// has no ECQ at all, so it is type 0; a verbatim block, which could not
/// be coded, is type 3.
#[must_use]
pub(crate) fn paper_block_type(kind: BlockKind, ecb_max: u32) -> u8 {
    match kind {
        BlockKind::AllZero | BlockKind::PatternOnly => 0,
        BlockKind::Verbatim => 3,
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
    /// Dense stream, or sparse count plus outlier list; 0 for a Dense
    /// stream the sink takes (see [`BlockSink::TAKES_DENSE`]).
    pub(crate) ecq_bits: u64,
    pub(crate) verbatim_bits: u64,
}

/// What [`walk_block`] hands each field to, in wire order, as it reads a
/// block. The walker owns the layout and every check on it; a sink only
/// consumes. Every method defaults to ignoring its field.
pub(crate) trait BlockSink {
    /// Whether [`walk_block`] stops at a Dense block's ECQ stream and
    /// hands it over undecoded, instead of decoding it through
    /// [`ecq`](Self::ecq).
    const TAKES_DENSE: bool = false;
    /// Value `i` of a Verbatim block.
    fn verbatim(&mut self, _i: usize, _v: f64) {}
    /// The next pattern code (PQ), in point order.
    fn pattern(&mut self, _q: i64) {}
    /// The scale code (SQ) of sub-block `j`; every pattern code has
    /// already arrived.
    fn scale(&mut self, _j: usize, _q: i64, _sq_quant: &ScaleQuantizer) {}
    /// Point `idx` carries ECQ code `q`: every point of a Dense block in
    /// order, as its stream decodes (unless the sink takes the stream),
    /// or each outlier of a Sparse one.
    fn ecq(&mut self, _idx: usize, _q: i64) {}
    /// The block has been read in full.
    fn end(&mut self, _layout: &BlockLayout) {}
}

/// A Dense block's ECQ stream as [`walk_block`] hands it to a sink that
/// takes it: its `EC_{b,max}` and the reader at its first symbol.
pub(crate) struct DenseStream<'a> {
    ecb_max: u32,
    r: BitReader<'a>,
}

/// Reads one block's bit layout from `r` — the only reader of it — and
/// feeds every field to `sink`. [`decompress_blocks`] and
/// [`crate::container_bit_stats`] are its two sinks; a compressed-domain
/// consumer gets P, S and the sparse ECQ the same way, without building
/// the block.
///
/// For a sink that [takes](BlockSink::TAKES_DENSE) Dense streams, a Dense
/// block's walk stops at its ECQ stream and returns it; `r` is left at
/// the stream's start. Otherwise the walk returns `None`.
///
/// Inlined into each build of [`decompress_blocks`], so the field reads
/// and the prediction rows compile for that build too.
#[inline(always)]
pub(crate) fn walk_block<'a, S: BlockSink>(
    r: &mut BitReader<'a>,
    geom: &BlockGeometry,
    tree: EncodingTree,
    sink: &mut S,
) -> Result<Option<DenseStream<'a>>, DecompressError> {
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
    let mut dense = None;
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
                if kind == BlockKind::Dense && S::TAKES_DENSE {
                    dense = Some(DenseStream {
                        ecb_max,
                        r: r.clone(),
                    });
                } else if kind == BlockKind::Dense {
                    tree.decode_stream(block_size, ecb_max, r, |i, q| sink.ecq(i, q))?;
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
                        sink.ecq(idx, r.read_signed(ecb_max)?);
                    }
                }
                layout.ecq_bits = r.bit_pos() - ecq_start;
            }
            layout.header_bits =
                r.bit_pos() - start - layout.pq_bits - layout.sq_bits - layout.ecq_bits;
        }
    }
    sink.end(&layout);
    Ok(dense)
}

/// The decode sink: dequantizes each field straight into the block, and
/// takes a Dense block's stream for [`decompress_blocks`] to decode.
struct DecodeSink<'a> {
    quant: &'a Quantizer,
    out: &'a mut [f64],
    /// Dequantized pattern, filled before any scale arrives.
    phat: &'a mut Vec<f64>,
}

impl BlockSink for DecodeSink<'_> {
    const TAKES_DENSE: bool = true;

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
        for (o, &p) in self.out[j * sbs..(j + 1) * sbs].iter_mut().zip(self.phat.iter()) {
            *o = sh * p;
        }
    }

    fn ecq(&mut self, idx: usize, q: i64) {
        self.out[idx] += self.quant.dequantize(q);
    }

    fn end(&mut self, layout: &BlockLayout) {
        if layout.kind == BlockKind::AllZero {
            self.out.fill(0.0);
        }
    }
}

/// One block of a [`decompress_blocks`] batch: its payload, the tree its
/// container names, where its values go, and how its decode went.
pub(crate) struct BlockJob<'a> {
    pub(crate) payload: &'a [u8],
    pub(crate) tree: EncodingTree,
    /// `geom.block_size()` values.
    pub(crate) out: &'a mut [f64],
    /// `Ok` until the block fails. On failure `out` holds whatever the
    /// decode reached.
    pub(crate) result: Result<(), DecompressError>,
}

impl<'a> BlockJob<'a> {
    pub(crate) fn new(payload: &'a [u8], tree: EncodingTree, out: &'a mut [f64]) -> Self {
        Self {
            payload,
            tree,
            out,
            result: Ok(()),
        }
    }
}

/// Decodes a batch of blocks, each into its job's `out`.
///
/// Each block is walked first: its prediction rows `S_j·P` are written,
/// and an AllZero, PatternOnly, Sparse or Verbatim block is decoded in
/// full. A Dense block's Tree 5 stream then waits for the next one, and
/// the two are decoded in one interleaved loop ([`walk_pair`]) that adds
/// each `q·2EB` into its row; an odd one out runs alone through the same
/// step. Every value thus comes from the same two operations, in the
/// same order, as a block decoded alone, and one block's failure never
/// changes another's values or result.
///
/// Compiled once per [`Simd`] build: call it through
/// [`Simd::decompress_blocks`].
#[inline(always)]
pub(crate) fn decompress_blocks(jobs: &mut [BlockJob<'_>], geom: &BlockGeometry, quant: &Quantizer) {
    let (n, bin) = (geom.block_size(), quant.bin());
    let mut phat = Vec::with_capacity(geom.subblock_size);
    // A Tree 5 stream waiting for a partner: its job's index and walk.
    let mut waiting: Option<(usize, Prefix3Walk<'_>)> = None;
    for j in 0..jobs.len() {
        let job = &mut jobs[j];
        assert_eq!(job.out.len(), n, "block job of the wrong size");
        phat.clear();
        let mut r = BitReader::new(job.payload);
        let mut sink = DecodeSink {
            quant,
            out: job.out,
            phat: &mut phat,
        };
        let stream = match walk_block(&mut r, geom, job.tree, &mut sink) {
            Ok(Some(stream)) => stream,
            Ok(None) => continue,
            Err(e) => {
                job.result = Err(e);
                continue;
            }
        };
        let DenseStream { ecb_max, mut r } = stream;
        let Some(mut walk) = job.tree.prefix3_walk(n, ecb_max, r.clone()) else {
            // The other trees read symbol by symbol, alone.
            job.result = job.tree.decode_stream(n, ecb_max, &mut r, add_into(job.out, bin));
            continue;
        };
        match waiting.take() {
            None => waiting = Some((j, walk)),
            Some((w, mut partner)) => {
                let (head, tail) = jobs.split_at_mut(j);
                let (a, b) = (&mut head[w], &mut tail[0]);
                (a.result, b.result) = walk_pair(
                    &mut partner,
                    &mut walk,
                    &mut add_into(a.out, bin),
                    &mut add_into(b.out, bin),
                );
            }
        }
    }
    if let Some((w, mut walk)) = waiting {
        let job = &mut jobs[w];
        job.result = walk.finish(&mut add_into(job.out, bin));
    }
}

/// Adds ECQ code `q`, dequantized (`q·2EB`, as
/// [`Quantizer::dequantize`]), into point `i` of `out`.
#[inline(always)]
fn add_into(out: &mut [f64], bin: f64) -> impl FnMut(usize, i64) + '_ {
    move |i, q| out[i] += q as f64 * bin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CompressionStats;

    /// Decodes one block's payload into `out`: a batch of one.
    fn decompress_block(
        payload: &[u8],
        geom: &BlockGeometry,
        quant: &Quantizer,
        tree: EncodingTree,
        out: &mut [f64],
    ) -> Result<(), DecompressError> {
        let mut jobs = [BlockJob::new(payload, tree, out)];
        Simd::detect().decompress_blocks(&mut jobs, geom, quant);
        let [job] = jobs;
        job.result
    }

    fn geom() -> BlockGeometry {
        BlockGeometry::new(6, 8)
    }

    fn roundtrip_block(block: &[f64], eb: f64) -> (Vec<f64>, BlockKind, usize) {
        let g = geom();
        let quant = Quantizer::new(eb);
        let mut w = BitWriter::new();
        let kind = compress_block(block, &g, &quant, &CompressorOptions::default(), &mut w);
        let bytes = w.into_bytes();
        let mut out = vec![0.0; g.block_size()];
        decompress_block(&bytes, &g, &quant, EncodingTree::Tree5, &mut out).unwrap();
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
        compress_block(&block, &g, &quant, &CompressorOptions::default(), &mut w_auto);
        // Whichever representation was chosen, it round-trips within EB.
        let bytes = w_auto.into_bytes();
        let mut out = vec![0.0; g.block_size()];
        decompress_block(&bytes, &g, &quant, EncodingTree::Tree5, &mut out).unwrap();
        assert_within(&block, &out, 1e-10);
    }

    #[test]
    fn paper_block_types() {
        assert_eq!(paper_block_type(BlockKind::AllZero, 1), 0);
        assert_eq!(paper_block_type(BlockKind::PatternOnly, 2), 0);
        assert_eq!(paper_block_type(BlockKind::Dense, 2), 1);
        assert_eq!(paper_block_type(BlockKind::Dense, 5), 2);
        assert_eq!(paper_block_type(BlockKind::Sparse, 9), 3);
        assert_eq!(paper_block_type(BlockKind::Verbatim, 0), 3);
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
        compress_block(&block, &g, &quant, &CompressorOptions::default(), &mut w);
        let bytes = w.into_bytes();
        let mut out = vec![0.0; g.block_size()];
        let err = decompress_block(&bytes[..bytes.len() / 2], &g, &quant, EncodingTree::Tree5, &mut out);
        assert!(err.is_err());
    }

    /// Each build of the block compressor writes the same bytes, for
    /// every tree, representation and scale rule, on blocks that take
    /// every path: AllZero, PatternOnly, Dense, Sparse, scalar-path rows
    /// and Verbatim. Blocks come in two geometries: `(dd|dd)`-like 6×36,
    /// and `(ff|ff)`-sized 100×100, whose ECQ streams span several
    /// emitter chunks.
    #[test]
    fn every_simd_build_writes_the_same_bytes() {
        let mut x = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut uniform = move || (next() >> 11) as f64 / 2f64.powi(53) - 0.5;
        let eb_values = [1e-10, 1e-12, 2.5e-11];
        for (g, count) in [(BlockGeometry::new(6, 36), 60), (BlockGeometry::new(100, 100), 6)] {
            let (sbs, n) = (g.subblock_size, g.block_size());
            let mut blocks: Vec<Vec<f64>> = vec![vec![0.0; n], vec![-0.0; n]];
            for k in 0..count {
                let pat: Vec<f64> = (0..sbs).map(|_| uniform() * 1e-6).collect();
                let noise = [0.0, 1e-11, 1e-10, 1e-9, 1e-7][k % 5];
                let mut b = Vec::new();
                for j in 0..g.num_subblocks {
                    let s = 1.0 - j as f64 * 1.02 / g.num_subblocks as f64;
                    b.extend(pat.iter().map(|p| p * s + uniform() * noise));
                }
                if k % 7 == 3 {
                    // Huge outlier: scalar rows or verbatim.
                    b[((uniform() + 0.5) * n as f64) as usize] = 1e6;
                }
                if k % 11 == 5 {
                    b[((uniform() + 0.5) * n as f64) as usize] = f64::NAN;
                }
                blocks.push(b);
            }
            // Tree 5's two coders and the outlier list, as a wire walk
            // of the portable build's payloads counts them.
            let mut dense = CompressionStats::default();
            let mut sparse = CompressionStats::default();
            for tree in crate::encoding::tests::ALL {
                for ecq_repr in [EcqRepr::Auto, EcqRepr::DenseOnly, EcqRepr::SparseOnly] {
                    for scale_rule in [ScaleRule::Practical, ScaleRule::NaiveEbBins] {
                        let opts = CompressorOptions {
                            tree,
                            ecq_repr,
                            scale_rule,
                            ..Default::default()
                        };
                        for (i, block) in blocks.iter().enumerate() {
                            let quant = Quantizer::new(eb_values[i % 3]);
                            let outputs: Vec<(&str, Vec<u8>, BlockKind)> = Simd::variants()
                                .into_iter()
                                .map(|(name, simd)| {
                                    let mut w = BitWriter::new();
                                    let kind = simd.compress_block(block, &g, &quant, &opts, &mut w);
                                    (name, w.into_bytes(), kind)
                                })
                                .collect();
                            let (_, portable, kind) = &outputs[0];
                            for (name, bytes, k) in &outputs[1..] {
                                assert_eq!(
                                    (bytes, k),
                                    (portable, kind),
                                    "{name} vs portable: {g:?} block {i} {opts:?}"
                                );
                            }
                            let census = match (tree, ecq_repr) {
                                (EncodingTree::Tree5, EcqRepr::DenseOnly) => &mut dense,
                                (EncodingTree::Tree5, EcqRepr::SparseOnly) => &mut sparse,
                                _ => continue,
                            };
                            let mut walked = CompressionStats::default();
                            crate::inspect::record_block_bits(&mut walked, portable, &g, tree).unwrap();
                            assert_eq!(walked.kind_counts[*kind as usize], 1, "block {i}: {kind:?}");
                            census.merge(&walked);
                        }
                    }
                }
            }
            let coded = |k: BlockKind| dense.kind_counts[k as usize];
            assert!(coded(BlockKind::Dense) > 0 && dense.type_counts[1] > 0, "{g:?}: no 3-symbol stream");
            assert!(dense.type_counts[2] + dense.type_counts[3] > 0, "{g:?}: no Tree 3 stream");
            assert!(sparse.kind_counts[BlockKind::Sparse as usize] > 0, "{g:?}: no outlier list");
        }
    }

    /// Every block payload of `container`, with the geometry, quantizer
    /// and tree its header names.
    fn payloads_of(container: &[u8]) -> (BlockGeometry, Quantizer, EncodingTree, Vec<&[u8]>) {
        let walk = crate::container::walk_container(container).unwrap();
        let payloads = walk.frames.iter().map(|f| f.payload).collect();
        (walk.header.geometry, Quantizer::new(walk.header.eb), walk.header.tree, payloads)
    }

    /// Each block's result and, when it decoded, its values' bits:
    /// `payloads` decoded in `simd`'s build as one batch, or each alone.
    fn decode_bits(
        simd: Simd,
        (geom, quant, tree): (&BlockGeometry, &Quantizer, EncodingTree),
        payloads: &[&[u8]],
        batched: bool,
    ) -> Vec<Result<Vec<u64>, DecompressError>> {
        let bs = geom.block_size();
        let mut values = vec![0.0; payloads.len() * bs];
        let mut jobs: Vec<BlockJob<'_>> = values
            .chunks_mut(bs)
            .zip(payloads)
            .map(|(out, &payload)| BlockJob::new(payload, tree, out))
            .collect();
        if batched {
            simd.decompress_blocks(&mut jobs, geom, quant);
        } else {
            for job in jobs.chunks_mut(1) {
                simd.decompress_blocks(job, geom, quant);
            }
        }
        let results: Vec<_> = jobs.into_iter().map(|job| job.result).collect();
        results
            .into_iter()
            .zip(values.chunks(bs))
            .map(|(r, v)| r.map(|()| v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// Batched decode gives every block the bits it gets decoded alone, in
    /// every build of the decoder, and `decompress` gives them at 1 and 4
    /// threads: on ERIs of four configurations at two error bounds, on
    /// the golden containers and streams, and on batches where damaged
    /// payloads and frames sit between intact ones. Each ERI block's
    /// `compress_block` frame is also checked to be the bytes its
    /// container holds for it after the header.
    #[test]
    fn every_simd_build_decodes_the_same_bits() {
        use qchem::basis::BfConfig;
        use qchem::dataset::{DatasetSpec, EriDataset};
        use qchem::molecule::Molecule;

        let golden = |name: &str| {
            std::fs::read(format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR")))
                .expect("golden fixture")
        };
        let mut containers = Vec::new();
        for config in [BfConfig::dd_dd(), BfConfig::ff_ff(), BfConfig::fd_ff(), BfConfig::df_fd()] {
            // Analytic f-shell quartets cost seconds each in a debug
            // build, so those configurations take the far-field model.
            let values = if config == BfConfig::dd_dd() {
                let spec = DatasetSpec {
                    molecule: Molecule::benzene(),
                    config,
                    max_blocks: 200,
                    seed: 0xB17,
                };
                EriDataset::generate(&spec).values
            } else {
                EriDataset::generate_model(config, 40_000 / config.block_size(), 0xB17).values
            };
            let geom = BlockGeometry::from_dims(config.dims());
            for eb in [1e-10, 1e-6] {
                let compressor = crate::Compressor::new(geom, eb);
                let container = compressor.compress(&values);
                let frames: Vec<u8> = values
                    .chunks(geom.block_size())
                    .flat_map(|block| compressor.compress_block(block))
                    .collect();
                let header = crate::container::parse_header(&container).unwrap();
                assert_eq!(container[header.blocks_start..], frames, "{} eb={eb}", config.label());
                containers.push(container);
            }
        }
        containers.push(golden("v1_container.pastri"));
        containers.push(golden("v3_container.pastri"));
        for stream in ["v1_stream.pstrs", "v3_stream.pstrs"] {
            let bytes = golden(stream);
            for segment in crate::stream::Frames::new(&bytes[..]).unwrap() {
                containers.push(segment.unwrap().container);
            }
        }
        let pools: Vec<_> = [1, 4]
            .map(|t| rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap())
            .into();
        let mut dense = 0;
        for (c, container) in containers.iter().enumerate() {
            let (geom, quant, tree, payloads) = payloads_of(container);
            let code = (&geom, &quant, tree);
            let portable = Simd::variants()[0].1;
            let alone = decode_bits(portable, code, &payloads, false);
            dense += payloads.iter().filter(|p| p[0] >> 5 == BlockKind::Dense as u8).count();
            // Cut every third payload short and flip a bit in every
            // fifth, so failing streams pair with intact ones.
            let damaged: Vec<Vec<u8>> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| match i % 15 {
                    0 | 3 | 6 | 9 | 12 => p[..p.len() / 2].to_vec(),
                    5 | 10 => {
                        let mut p = p.to_vec();
                        let at = p.len() * 2 / 3;
                        p[at] ^= 0x10;
                        p
                    }
                    _ => p.to_vec(),
                })
                .collect();
            let damaged: Vec<&[u8]> = damaged.iter().map(Vec::as_slice).collect();
            let damaged_alone = decode_bits(portable, code, &damaged, false);
            for (name, simd) in Simd::variants() {
                let runs = [
                    ("batched", decode_bits(simd, code, &payloads, true), &alone),
                    ("alone", decode_bits(simd, code, &payloads, false), &alone),
                    ("damaged", decode_bits(simd, code, &damaged, true), &damaged_alone),
                ];
                for (run, got, want) in runs {
                    if let Some(b) = (0..want.len()).find(|&b| got[b] != want[b]) {
                        panic!("{name}, {run}: container {c} block {b} differs");
                    }
                }
            }
            let want: Vec<u64> = alone.into_iter().flat_map(Result::unwrap).collect();
            for pool in &pools {
                let got = pool.install(|| crate::decompress(container)).unwrap();
                assert!(
                    got.iter().map(|x| x.to_bits()).eq(want[..got.len()].iter().copied()),
                    "container {c} at {} threads",
                    pool.current_num_threads()
                );
            }
        }
        assert!(dense >= 100, "only {dense} Dense blocks");

        // Frames: intact, with a flipped payload bit under a recomputed
        // CRC (so the decoder meets it), with a flipped bit, with a
        // trailing byte and truncated. `decompress_blocks` gives each
        // slot what `decompress_block` gives it alone.
        let geom = BlockGeometry::from_dims([6, 6, 6, 6]);
        let values = EriDataset::generate_model(BfConfig::dd_dd(), 24, 0x5EED).values;
        let compressor = crate::Compressor::new(geom, 1e-10);
        let mut mixed: Vec<Vec<u8>> = Vec::new();
        for (i, block) in values.chunks(geom.block_size()).enumerate() {
            let mut f = compressor.compress_block(block);
            let start = f.len() - crate::check_frame(&f).unwrap().len();
            match i % 6 {
                1 => {
                    let at = start + (f.len() - start) / 2;
                    f[at] ^= 0x04;
                    let crc = checksum::crc32(&f[start..]);
                    f[start - 4..start].copy_from_slice(&crc.to_le_bytes());
                }
                2 => *f.last_mut().unwrap() ^= 1,
                3 => f.push(0),
                4 => f.truncate(f.len() - 2),
                _ => {}
            }
            mixed.push(f);
        }
        let mixed: Vec<&[u8]> = mixed.iter().map(Vec::as_slice).collect();
        let bits = |r: Result<Vec<f64>, DecompressError>| {
            r.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let alone: Vec<_> = mixed
            .iter()
            .map(|f| bits(crate::decompress_block(f, geom, 1e-10)))
            .collect();
        for (i, r) in alone.iter().enumerate() {
            match i % 6 {
                0 | 5 => assert!(r.is_ok(), "intact frame {i} refused"),
                2..=4 => assert!(r.is_err(), "damaged frame {i} accepted"),
                _ => {}
            }
        }
        for pool in &pools {
            let batched: Vec<_> = pool
                .install(|| crate::decompress_blocks(&mixed, geom, 1e-10))
                .into_iter()
                .map(bits)
                .collect();
            assert_eq!(batched, alone, "at {} threads", pool.current_num_threads());
        }
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
                compress_block(&block, &g, &quant, &opts, &mut w);
                let bytes = w.into_bytes();
                let mut out = vec![0.0; g.block_size()];
                decompress_block(&bytes, &g, &quant, tree, &mut out).unwrap();
                assert_within(&block, &out, 1e-10);
            }
        }
    }
}
