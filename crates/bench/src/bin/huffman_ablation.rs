//! Sec. IV-C ablation — why PaSTRI uses fixed trees instead of Huffman.
//!
//! The paper gives three arguments against Huffman-coding the ECQ stream:
//! the dictionary must be stored, huge sparse alphabets with
//! single-occurrence values hurt it, and dictionary construction
//! serializes the (otherwise block-parallel) pipeline. This binary
//! quantifies the size side of that trade on real data, comparing per
//! block:
//!
//! * Tree 5 payload bits (what PaSTRI ships),
//! * per-block Huffman: optimal code built per block + its serialized
//!   dictionary (the apples-to-apples alternative that keeps block
//!   independence),
//! * dataset-global Huffman payload with one shared dictionary (the
//!   serializing variant the paper warns about).
//!
//! Type-3 blocks carry ECQ values up to 2^31, far wider than any table
//! a decoder accepts ([`MAX_ALPHABET`]). Such an alphabet is priced as a
//! [`MAX_ALPHABET`]-slot table whose last slot is an escape: every
//! symbol at or above it codes as the escape plus its raw 32 bits.
//! Alphabets that fit are priced as they are.

use bench::{geometry_of, print_header, print_row, standard_dataset, MOLECULES};
use codecs::huffman::{HuffmanCode, MAX_ALPHABET};
use pastri::{ecq_bits, fit_pattern, EncodingTree, Quantizer, ScaleQuantizer, ScalingMetric};
use qchem::basis::BfConfig;

/// Reconstructs the per-block ECQ stream exactly as the compressor does.
fn block_ecq(block: &[f64], geom: pastri::BlockGeometry, quant: &Quantizer) -> Option<Vec<i64>> {
    let ext = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if ext <= quant.eb() {
        return None; // all-zero block, no ECQ stream at all
    }
    let fit = fit_pattern(ScalingMetric::Er, &geom, block);
    let sbs = geom.subblock_size;
    let pattern = &block[fit.pattern_sb * sbs..(fit.pattern_sb + 1) * sbs];
    let (pq, pb) = quant.quantize_pattern(pattern)?;
    let sq = ScaleQuantizer::new(pb);
    let phat: Vec<f64> = pq.iter().map(|&q| quant.dequantize(q)).collect();
    let mut ecq = Vec::with_capacity(block.len());
    for (j, &s) in fit.scales.iter().enumerate() {
        let shat = sq.dequantize(sq.quantize(s));
        for i in 0..sbs {
            ecq.push(quant.quantize(block[j * sbs + i] - shat * phat[i])?);
        }
    }
    Some(ecq)
}

/// Symbol mapping for Huffman: clamp ECQ into a dense alphabet by
/// zig-zagging (the dictionary-size problem the paper describes appears
/// immediately: the alphabet must cover the largest |ECQ| in scope).
fn to_symbols(ecq: &[i64]) -> (Vec<u32>, usize) {
    let zigzag = |v: i64| -> u32 { ((v << 1) ^ (v >> 63)) as u32 };
    let syms: Vec<u32> = ecq.iter().map(|&v| zigzag(v)).collect();
    let alphabet = syms.iter().copied().max().unwrap_or(0) as usize + 1;
    (syms, alphabet)
}

/// The escape slot of a too-wide alphabet (see the module docs).
const ESCAPE: u32 = MAX_ALPHABET as u32 - 1;
/// Raw bits an escaped symbol pays after the escape code.
const RAW_BITS: u64 = 32;

/// Huffman-codes `syms` over an alphabet of `alphabet` symbols:
/// `(payload bits, dictionary bits)`, or `None` for an empty stream.
fn huffman_bits(syms: &[u32], alphabet: usize) -> Option<(u64, u64)> {
    let escaped = alphabet > MAX_ALPHABET;
    let slot = |s: u32| if escaped { s.min(ESCAPE) } else { s } as usize;
    let mut freqs = vec![0u64; alphabet.min(MAX_ALPHABET)];
    for &s in syms {
        freqs[slot(s)] += 1;
    }
    let code = HuffmanCode::from_frequencies(&freqs)?;
    let payload = syms
        .iter()
        .map(|&s| {
            let raw = if escaped && s >= ESCAPE { RAW_BITS } else { 0 };
            u64::from(code.symbol_cost(slot(s)).unwrap()) + raw
        })
        .sum();
    let mut dict = Vec::new();
    code.write_table(&mut dict);
    Some((payload, dict.len() as u64 * 8))
}

fn main() {
    let eb = 1e-10;
    println!("Sec. IV-C ablation — fixed trees vs Huffman for ECQ (EB = {eb:.0e})\n");
    let widths = [22usize, 12, 16, 16, 12];
    print_header(
        &["dataset", "Tree5 bits", "blk-Huff bits", "(dict bits)", "global-Huff"],
        &widths,
    );

    for mol in MOLECULES {
        let config = BfConfig::dd_dd();
        let ds = standard_dataset(mol, config);
        let geom = geometry_of(config);
        let quant = Quantizer::new(eb);

        let mut tree5_bits = 0u64;
        let mut blk_huff_payload = 0u64;
        let mut blk_huff_dict = 0u64;
        let mut all_syms: Vec<u32> = Vec::new();
        let mut global_alphabet = 0usize;
        // Separate tallies for the paper's dominant case: small-EC blocks.
        let mut small_tree5 = 0u64;
        let mut small_huff = 0u64;

        for b in 0..ds.num_blocks() {
            let Some(ecq) = block_ecq(ds.block(b), geom, &quant) else {
                continue;
            };
            let ecb_max = ecq.iter().map(|&v| ecq_bits(v)).max().unwrap_or(1).max(2);
            let t5 = EncodingTree::Tree5.stream_cost(&ecq, ecb_max);
            tree5_bits += t5;

            let (syms, alphabet) = to_symbols(&ecq);
            if let Some((payload, dict)) = huffman_bits(&syms, alphabet) {
                blk_huff_payload += payload;
                blk_huff_dict += dict;
                if ecb_max <= 3 {
                    small_tree5 += t5;
                    small_huff += payload + dict;
                }
            }
            global_alphabet = global_alphabet.max(alphabet);
            all_syms.extend(syms);
        }

        // Global Huffman: one dictionary over the whole dataset.
        let global_bits = huffman_bits(&all_syms, global_alphabet.max(1))
            .map_or(0, |(payload, dict)| payload + dict);

        print_row(
            &[
                format!("{mol} (dd|dd)"),
                format!("{tree5_bits}"),
                format!("{}", blk_huff_payload + blk_huff_dict),
                format!("({blk_huff_dict})"),
                format!("{global_bits}"),
            ],
            &widths,
        );

        // The paper's point, checked where it bites: on the small-EC
        // blocks that dominate its datasets (types 0-2), the per-block
        // dictionary does not amortize and Tree 5 wins outright.
        println!(
            "    small-EC blocks only: Tree5 {small_tree5} bits vs per-block Huffman {small_huff} bits"
        );
        if small_tree5 > 0 {
            assert!(
                small_tree5 <= small_huff,
                "{mol}: Tree5 must beat per-block Huffman on small-EC blocks"
            );
        }
        // Dictionary overhead is a real fraction of the Huffman total.
        let dict_frac = blk_huff_dict as f64 / (blk_huff_payload + blk_huff_dict).max(1) as f64;
        println!("    per-block dictionaries: {:.1} % of the Huffman total", dict_frac * 100.0);
    }

    println!(
        "\npaper Sec. IV-C: fixed trees need no dictionary, tolerate huge sparse\n\
         alphabets, and keep blocks independent. Confirmed: on the small-EC\n\
         blocks that dominate the paper's datasets, Tree 5 beats per-block\n\
         Huffman + dictionary; on large-EC (type 3) blocks Huffman's payload\n\
         advantage grows, but only the *global*-dictionary variant realizes it\n\
         at scale — and that serializes the block-parallel pipeline."
    );
}
