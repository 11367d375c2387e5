//! Property tests for the PaSTRI compressor.
//!
//! The central invariant (DESIGN.md §7): for *any* finite input, any
//! geometry, and any error bound, every decompressed value is within EB
//! of its original — the pattern machinery only affects the ratio, never
//! correctness. Non-finite values round-trip bit-exactly via the verbatim
//! fallback.

use pastri::{
    BlockGeometry, Compressor, CompressorOptions, EcqRepr, EncodingTree, ParityConfig, ScaleRule,
    ScalingMetric,
};
use proptest::prelude::*;

/// Random compressor options covering the whole configuration space.
fn options_strategy() -> impl Strategy<Value = CompressorOptions> {
    (
        prop_oneof![
            Just(ScalingMetric::Fr),
            Just(ScalingMetric::Er),
            Just(ScalingMetric::Ar),
            Just(ScalingMetric::Aar),
            Just(ScalingMetric::Is),
        ],
        prop_oneof![
            Just(EncodingTree::Tree1),
            Just(EncodingTree::Tree2),
            Just(EncodingTree::Tree3),
            Just(EncodingTree::Tree4),
            Just(EncodingTree::Tree5),
            Just(EncodingTree::FixedLength),
        ],
        prop_oneof![Just(ScaleRule::Practical), Just(ScaleRule::NaiveEbBins)],
        prop_oneof![
            Just(EcqRepr::Auto),
            Just(EcqRepr::DenseOnly),
            Just(EcqRepr::SparseOnly),
        ],
    )
        .prop_map(|(metric, tree, scale_rule, ecq_repr)| CompressorOptions {
            metric,
            tree,
            scale_rule,
            ecq_repr,
            ..CompressorOptions::default()
        })
}

fn geometry_strategy() -> impl Strategy<Value = BlockGeometry> {
    (1usize..=20, 1usize..=40).prop_map(|(n, s)| BlockGeometry::new(n, s))
}

/// Finite doubles across wildly different magnitudes.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -1e-5..1e-5f64,
        2 => -1.0..1.0f64,
        1 => -1e12..1e12f64,
        1 => -1e-300..1e-300f64,
        1 => Just(0.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn error_bound_holds_for_any_finite_input(
        geom in geometry_strategy(),
        opts in options_strategy(),
        eb_exp in -14i32..-2,
        data in proptest::collection::vec(value_strategy(), 0..600),
    ) {
        let eb = 10f64.powi(eb_exp);
        let c = Compressor::with_options(geom, eb, opts);
        let bytes = c.compress(&data);
        let back = c.decompress(&bytes).unwrap();
        prop_assert_eq!(back.len(), data.len());
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            prop_assert!((a - b).abs() <= eb, "point {}: {} vs {} (eb {})", i, a, b, eb);
        }
    }

    #[test]
    fn non_finite_values_roundtrip_bit_exactly(
        geom in geometry_strategy(),
        data in proptest::collection::vec(
            prop_oneof![
                3 => -1e6..1e6f64,
                1 => Just(f64::NAN),
                1 => Just(f64::INFINITY),
                1 => Just(f64::NEG_INFINITY),
            ],
            1..200,
        ),
    ) {
        let c = Compressor::new(geom, 1e-9);
        let back = c.decompress(&c.compress(&data)).unwrap();
        for (a, b) in data.iter().zip(&back) {
            if a.is_finite() {
                prop_assert!((a - b).abs() <= 1e-9);
            } else {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn perfectly_scaled_blocks_compress_hard(
        num_sb in 4usize..=16,
        sb_size in 8usize..=32,
        blocks in 1usize..=6,
        seed in any::<u64>(),
    ) {
        // Construct exact far-field blocks: sub-blocks are exact scalar
        // multiples. PaSTRI must hit PatternOnly/Sparse kinds and beat
        // 6x compression.
        let geom = BlockGeometry::new(num_sb, sb_size);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / 2f64.powi(53) - 0.5
        };
        let mut data = Vec::new();
        for _ in 0..blocks {
            let pattern: Vec<f64> = (0..sb_size).map(|_| next() * 1e-6).collect();
            for _ in 0..num_sb {
                let s = next();
                data.extend(pattern.iter().map(|p| p * s));
            }
        }
        // Parity off: this asserts the *codec's* compression ratio, and
        // with ≤ 6 blocks the default 2-shards-per-group FEC overhead
        // would dominate the measurement.
        let c = Compressor::with_options(geom, 1e-10, CompressorOptions {
            parity: ParityConfig::NONE,
            ..Default::default()
        });
        let bytes = c.compress(&data);
        let back = c.decompress(&bytes).unwrap();
        for (a, b) in data.iter().zip(&back) {
            prop_assert!((a - b).abs() <= 1e-10);
        }
        let cr = (data.len() * 8) as f64 / bytes.len() as f64;
        prop_assert!(cr > 6.0, "CR only {} on perfectly scaled data", cr);
    }

    #[test]
    fn container_detects_random_corruption(
        data in proptest::collection::vec(-1.0..1.0f64, 64..256),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        // Any single bit flip must either still decode (into garbage
        // values — lossy streams cannot authenticate) or error out; it
        // must never panic or hang.
        let geom = BlockGeometry::new(4, 16);
        let c = Compressor::new(geom, 1e-6);
        let mut bytes = c.compress(&data);
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let _ = c.decompress(&bytes); // must return, Ok or Err
    }

    #[test]
    fn compression_is_deterministic(
        data in proptest::collection::vec(-1e-4..1e-4f64, 0..400),
        opts in options_strategy(),
    ) {
        let geom = BlockGeometry::new(6, 10);
        let c = Compressor::with_options(geom, 1e-10, opts);
        prop_assert_eq!(c.compress(&data), c.compress(&data));
    }

    #[test]
    fn stats_never_change_the_bytes(
        data in proptest::collection::vec(-1e-4..1e-4f64, 0..400),
        opts in options_strategy(),
    ) {
        // Plain compression skips the accounting; the output must not notice.
        let geom = BlockGeometry::new(6, 10);
        let c = Compressor::with_options(geom, 1e-10, opts);
        prop_assert_eq!(c.compress_with_stats(&data).0, c.compress(&data));
    }

    #[test]
    fn stats_block_accounting(
        data in proptest::collection::vec(-1e-4..1e-4f64, 1..500),
    ) {
        let geom = BlockGeometry::new(5, 7);
        let c = Compressor::new(geom, 1e-9);
        let (bytes, stats) = c.compress_with_stats(&data);
        prop_assert_eq!(stats.blocks as usize, geom.blocks_for_len(data.len()));
        prop_assert_eq!(stats.compressed_bytes as usize, bytes.len());
        let kinds: u64 = stats.kind_counts.iter().sum();
        prop_assert_eq!(kinds, stats.blocks);
        let types: u64 = stats.type_counts.iter().sum();
        prop_assert_eq!(types, stats.blocks);
    }
}
