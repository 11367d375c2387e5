//! The data's structure and what PaSTRI makes of it (Sec. IV-A/B):
//! Figs. 3–6.

use bench::{
    benchmark_molecule, geometry_of, option_table, print_header, print_row, standard_dataset,
    standard_datasets, Claims, Codec, RoundTrip,
};
use pastri::{
    container_bit_stats, ecq_bits, fit_pattern, BlockTypeStats, CompressionStats, Compressor,
    CompressorOptions, PatternFit, Quantizer, ScaleQuantizer, ScalingMetric,
};
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};

fn ascii_plot(label: &str, series: &[(&str, Vec<f64>)], height: usize) {
    println!("\n{label}");
    let all = series.iter().flat_map(|(_, v)| v);
    let lo = all.clone().copied().fold(f64::INFINITY, f64::min);
    let hi = all.copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-300);
    let mut grid = vec![vec![b' '; series[0].1.len()]; height];
    let mut legend = Vec::new();
    for ((name, v), &glyph) in series.iter().zip(b"*o.") {
        legend.push(format!("{} = {name}", glyph as char));
        for (x, &val) in v.iter().enumerate() {
            let y = ((val - lo) / span * (height - 1) as f64).round() as usize;
            grid[height - 1 - y.min(height - 1)][x] = glyph;
        }
    }
    for row in grid {
        println!("  {}", String::from_utf8_lossy(&row));
    }
    println!(
        "  range [{lo:+.3e}, {hi:+.3e}]   series: {}",
        legend.join(", ")
    );
}

/// The scale that maps sub-block `s0` onto `s1` at `s0`'s largest
/// element, or `None` when `s0` is all zero.
fn anchor_scale(s0: &[f64], s1: &[f64]) -> Option<f64> {
    let anchor = (0..s0.len()).max_by(|&x, &y| s0[x].abs().total_cmp(&s0[y].abs()))?;
    (s0[anchor] != 0.0).then(|| s1[anchor] / s0[anchor])
}

/// The ECQ values of `block` against the dequantized pattern `phat`,
/// with each scale of `fit` quantized by `sq`: what the compressor codes.
pub fn ecq_stream(
    block: &[f64],
    fit: &PatternFit,
    phat: &[f64],
    sq: ScaleQuantizer,
    quant: &Quantizer,
) -> Option<Vec<i64>> {
    let shats = fit.scales.iter().map(|&s| sq.dequantize(sq.quantize(s)));
    let subblocks = block.chunks(phat.len()).zip(shats);
    subblocks
        .flat_map(|(sub, shat)| {
            sub.iter()
                .zip(phat)
                .map(move |(v, p)| quant.quantize(v - shat * p))
        })
        .collect()
}

/// Fig. 3 — the latent pattern in ERI blocks: a `(dd|dd)` block from a
/// real molecule, printed as (a) the raw 1-D view showing six repeating
/// sub-blocks, (b) the first two sub-blocks overlapped, (c) the second
/// sub-block rescaled onto the first, and (d) the deviation and the
/// post-compression absolute error at EB = 1e-10.
pub fn fig3(claims: &mut Claims) {
    let config = BfConfig::dd_dd();
    let spec = DatasetSpec {
        molecule: benchmark_molecule("alanine"),
        config,
        max_blocks: 24,
        seed: 0x5eed,
    };
    let ds = EriDataset::generate(&spec);
    let sbs = config.subblock_size();
    let subblocks = |b: usize| (&ds.block(b)[..sbs], &ds.block(b)[sbs..2 * sbs]);

    // The paper hand-picked a representative far-field block: among the
    // blocks whose extremum is at most the median block's, pick the one
    // whose first two sub-blocks match best under scaling.
    let extremum = |b: usize| ds.block(b).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    let mut extrema: Vec<f64> = (0..ds.num_blocks()).map(extremum).collect();
    extrema.sort_by(f64::total_cmp);
    let n = extrema.len();
    let median = (extrema[(n - 1) / 2] + extrema[n / 2]) / 2.0;
    let deviation = |b: usize| {
        let ext = extremum(b);
        let (s0, s1) = subblocks(b);
        let scale = anchor_scale(s0, s1).filter(|_| (1e-9..=median).contains(&ext))?;
        let dev = (0..sbs).map(|i| (s1[i] - scale * s0[i]).abs());
        Some(dev.fold(0.0, f64::max) / ext)
    };
    let best_block = (0..ds.num_blocks())
        .filter_map(|b| Some((b, deviation(b)?)))
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .map_or(0, |(b, _)| b);
    let block = ds.block(best_block);

    println!("Fig. 3 reproduction — pattern structure of a (dd|dd) ERI block");
    println!(
        "molecule: tri-alanine cluster, block {best_block} of {}",
        ds.num_blocks()
    );

    // (a) full block: 36 sub-blocks of 36 (paper shows the first 6).
    let first6: Vec<f64> = block[..6 * sbs].to_vec();
    ascii_plot(
        "(a) first six sub-blocks of the block (1-D view)",
        &[("data", first6)],
        12,
    );

    // (b) first two sub-blocks overlapped.
    let (s0, s1) = subblocks(best_block);
    ascii_plot(
        "(b) sub-blocks [0:35] and [36:71] overlapped",
        &[("sub-block 0", s0.to_vec()), ("sub-block 1", s1.to_vec())],
        12,
    );

    // (c) sub-block 1 rescaled onto sub-block 0.
    let scale = anchor_scale(s0, s1).expect("the chosen block has a nonzero anchor");
    let rescaled: Vec<f64> = s1.iter().map(|v| v / scale).collect();
    ascii_plot(
        "(c) sub-block 1 rescaled to match sub-block 0",
        &[("sub-block 0", s0.to_vec()), ("rescaled 1", rescaled)],
        12,
    );

    // (d) deviation + compression error at EB = 1e-10.
    let eb = 1e-10;
    let bytes = Codec::Pastri.compress(block, config, eb);
    let back = Codec::Pastri.decompress(&bytes);
    println!("\n(d) |deviation| of scaled match and |compression error| at EB = 1e-10");
    println!("      idx   |sub1 - scale*sub0|   |orig - decompressed|");
    let mut max_dev = 0.0f64;
    let mut max_err = 0.0f64;
    for i in 0..sbs {
        let dev = (s1[i] - scale * s0[i]).abs();
        let err = (block[sbs + i] - back[sbs + i]).abs();
        max_dev = max_dev.max(dev);
        max_err = max_err.max(err);
        if i % 6 == 0 {
            println!("      {i:3}   {dev:18.3e}   {err:20.3e}");
        }
    }
    println!("      max   {max_dev:18.3e}   {max_err:20.3e}");
    println!(
        "\nblock compressed {} B -> {} B (CR {:.1})",
        block.len() * 8,
        bytes.len(),
        (block.len() * 8) as f64 / bytes.len() as f64
    );
    claims.check("sub-block 1 decompresses within EB", max_err <= eb);
}

/// Fig. 4 (table) — compression ratio by pattern-scaling metric.
///
/// Paper values on its workload: FR N/A, ER 17.46, AR 16.92, AAR 17.44,
/// IS 17.29 — ER wins and FR is unusable. This sweeps all five metrics
/// over the standard datasets at EB = 1e-10 and prints the same table;
/// expect the same ordering (ER best, FR far behind), not the same
/// absolute values (different data).
pub fn fig4(claims: &mut Claims) {
    let eb = 1e-10;
    println!("Fig. 4 reproduction — compression ratio by scaling metric (EB = {eb:.0e})\n");
    let metrics = ScalingMetric::ALL.map(|metric| CompressorOptions {
        metric,
        ..CompressorOptions::default()
    });
    let rows = option_table("dataset | FR | ER | AR | AAR | IS", eb, &metrics);

    println!("\npaper (GAMESS workload): FR N/A | ER 17.46 | AR 16.92 | AAR 17.44 | IS 17.29");
    println!(
        "note: as in the paper, the four usable metrics land within a few percent of\n\
         each other; the exact ordering depends on the block population. The paper's\n\
         two robust claims are checked below."
    );
    claims.check(
        "every metric decodes every dataset within EB",
        rows[rows.len() - 1].1.iter().all(|t| t.max_error <= eb),
    );

    // Claim 1 (on Eq.-3 model data at volume): ER beats FR.
    let config = BfConfig::dd_dd();
    let model = EriDataset::generate_model(config, 1000, 4242);
    let cr_of = |options, values: &[f64]| {
        RoundTrip::of(&Compressor::with_options(geometry_of(config), eb, options), values).ratio()
    };
    let (fr, er) = (metrics[0], metrics[1]); // ScalingMetric::ALL order
    let (fr_m, er_m) = (cr_of(fr, &model.values), cr_of(er, &model.values));
    println!("\nmodel data (1000 far-field blocks): FR {fr_m:.2} vs ER {er_m:.2}");
    claims.check("ER beats FR on Eq.-3 model data", er_m > fr_m);

    // Claim 2: FR is unusable ("N/A") when first data points are near
    // zero — exactly the failure mode the paper names. Blocks whose
    // pattern starts at ~0 (a node of the shape function) collapse FR.
    let geom = geometry_of(config);
    let sbs = geom.subblock_size;
    let mut data = Vec::new();
    for b in 0..200usize {
        for j in 0..geom.num_subblocks {
            let s = ((j + b) as f64 * 0.7).cos();
            for i in 0..sbs {
                // sin(pi i / n): exactly 0 at i = 0 for every sub-block.
                let q = (std::f64::consts::PI * i as f64 / sbs as f64).sin();
                data.push(1e-6 * s * q + 1e-11 * ((i * 31 + j * 7 + b) % 13) as f64);
            }
        }
    }
    let (fr_z, er_z) = (cr_of(fr, &data), cr_of(er, &data));
    println!(
        "zero-first-element data: FR {fr_z:.2} vs ER {er_z:.2} -> FR collapses by {:.1}x \
         (the paper's \"N/A\")",
        er_z / fr_z
    );
    claims.check(
        "FR collapses (ER > 1.5 × FR) on zero-first-element data",
        er_z > 1.5 * fr_z,
    );
}

/// Fig. 5 — the effect of quantization resolution on the scaled pattern.
///
/// The paper's diagram shows that as the quantized scaled pattern
/// converges to its precise values, the range the error-correction codes
/// must cover converges to the intrinsic deviation. This makes the
/// diagram quantitative: sweep the pattern/scale bit width over one real
/// ERI block and report the resulting EC_b — reproducing Sec. IV-B's
/// conclusion that the practical rule (`S_b = P_b`) costs at most ~2 bins
/// over the ideal.
pub fn fig5(claims: &mut Claims) {
    let eb = 1e-10;
    let config = BfConfig::dd_dd();
    let geom = geometry_of(config);
    let ds = standard_dataset("alanine", config);

    // A representative block with nonzero deviations.
    let block = (0..ds.num_blocks())
        .map(|b| ds.block(b))
        .find(|blk| blk.iter().any(|v| v.abs() > 1e-7))
        .expect("dataset has a usable block");

    let quant = Quantizer::new(eb);
    let fit = fit_pattern(ScalingMetric::Er, &geom, block);
    let sbs = geom.subblock_size;
    let pattern = &block[fit.pattern_sb * sbs..(fit.pattern_sb + 1) * sbs];
    let (pq, pb_full) = quant.quantize_pattern(pattern).expect("finite pattern");
    let phat: Vec<f64> = pq.iter().map(|&q| quant.dequantize(q)).collect();

    println!("Fig. 5 reproduction — EC range vs pattern/scale resolution (EB = {eb:.0e})");
    println!("block: tri-alanine (dd|dd), P_b from the practical rule = {pb_full} bits\n");
    println!(
        "{:>8} {:>10} {:>14} {:>16}",
        "S_b bits", "EC_b,max", "max |ECQ|", "EC bins needed"
    );

    // Sweep the scale resolution from very coarse to the practical rule
    // and beyond; the pattern stays at full (2·EB-bin) resolution, as in
    // the paper's practical method.
    let mut results = Vec::new();
    for sb_bits in [4u32, 6, 8, 10, 12, pb_full, pb_full + 6, 33] {
        let ecq = ecq_stream(block, &fit, &phat, ScaleQuantizer::new(sb_bits), &quant);
        let max_ecq = ecq
            .expect("finite")
            .iter()
            .map(|q| q.abs())
            .max()
            .unwrap_or(0);
        let bits = ecq_bits(max_ecq);
        println!(
            "{sb_bits:>8} {bits:>10} {max_ecq:>14} {:>16}",
            2i64.saturating_pow(bits)
        );
        results.push((sb_bits, bits));
    }

    let at_practical = results.iter().find(|(b, _)| *b == pb_full).unwrap().1;
    let asymptote = results.last().unwrap().1;
    println!("\npractical rule EC_b = {at_practical}, high-resolution asymptote = {asymptote}");
    claims.check(
        "the practical rule is within 2 bins of the high-resolution asymptote",
        at_practical <= asymptote + 2,
    );
}

/// Prints each block type's count and share; returns the share of types
/// 0 and 1 in percent.
fn print_block_types(types: &[BlockTypeStats; 4]) -> f64 {
    for (t, ts) in types.iter().enumerate() {
        let pct = ts.fraction * 100.0;
        println!("  type {t}: {:6} blocks ({pct:5.1} %)", ts.count);
    }
    (types[0].fraction + types[1].fraction) * 100.0
}

/// Fig. 6 — ECQ value distribution by block type.
///
/// The paper groups quantized error-correction values into bins by the
/// number of bits needed (bin 1 = value 0, bin 2 = ±1, bin i = ±[2^{i-2},
/// 2^{i-1}-1]) and plots per-block-type histograms, observing that 70–80 %
/// of blocks are type 0/1 and EC_{b,max} rarely exceeds 22 at EB = 1e-10.
pub fn fig6(claims: &mut Claims) {
    let eb = 1e-10;
    println!("Fig. 6 reproduction — ECQ distribution by block type (EB = {eb:.0e})\n");
    let census = |config, values: &[f64]| {
        let bytes = Compressor::new(geometry_of(config), eb).compress(values);
        container_bit_stats(&bytes).expect("a container just written")
    };
    let mut stats = CompressionStats::default();
    for ds in standard_datasets() {
        stats.merge(&census(ds.config, &ds.values));
    }

    println!("block-type census (paper: 70-80% of blocks are type 0 or 1):");
    let t01 = print_block_types(&stats.block_types());
    println!("  type 0+1 combined: {t01:.1} %\n");

    // Per-type histograms, log-scale frequency as the paper plots.
    let widths = [4usize, 12, 12, 12, 12, 12];
    print_header("bin | type 0 | type 1 | type 2 | type 3 | total", &widths);
    let total = stats.ecq_hist_total();
    let max_bin = total.iter().rposition(|&c| c > 0).unwrap_or(0);
    let fmt_count = |c: u64| if c > 0 { c.to_string() } else { "-".into() };
    for (bin, &total_count) in total.iter().enumerate().take(max_bin + 1).skip(1) {
        let counts = stats.ecq_hist_by_type.iter().map(|hist| hist[bin]);
        let counts = counts.chain([total_count]).map(fmt_count);
        print_row([bin.to_string()].into_iter().chain(counts), &widths);
    }
    println!("\nEC_b,max observed = {max_bin} (paper: typically does not exceed 22 at EB = 1e-10)");
    // Type-0 blocks contribute no dense ECQ bins above 1 by definition.
    claims.check(
        "type-0 blocks carry only zero ECQ values",
        stats.ecq_hist_by_type[0].iter().skip(2).all(|&c| c == 0),
    );

    // The paper's histogram came from "thousands of blocks" of production
    // data; repeat the census at that scale with the Eq.-3 far-field
    // model (the volume substitute, DESIGN.md §2).
    let model = EriDataset::generate_model(BfConfig::dd_dd(), 5000, 0x616);
    println!("\nmodel data at scale (5000 (dd|dd) blocks):");
    let mt01 = print_block_types(&census(BfConfig::dd_dd(), &model.values).block_types());
    println!("  type 0+1 combined: {mt01:.1} % (paper: 70-80 %)");
    claims.check(
        "model data at scale has 60-95 % type 0+1 blocks",
        (60.0..=95.0).contains(&mt01),
    );
}
