//! Property test: the PaSTRI pointwise guarantee
//! `|decompressed − original| ≤ EB` holds under the *parallel* pipeline —
//! every scaling metric, the sparse ECQ fallback, all three evaluation
//! error bounds, through the in-memory container fan-out.
//! Block content is generated adversarially (patterned, noisy,
//! sparse-with-outliers, constant) rather than from the physics model,
//! so the bound is exercised at its edges.

use pastri::{
    BlockGeometry, CompressorOptions, Compressor, EcqRepr, EncodingTree, ScalingMetric,
};
use proptest::prelude::*;

const EBS: [f64; 3] = [1e-11, 1e-10, 1e-9];

fn metric_strategy() -> impl Strategy<Value = ScalingMetric> {
    prop_oneof![
        Just(ScalingMetric::Fr),
        Just(ScalingMetric::Er),
        Just(ScalingMetric::Ar),
        Just(ScalingMetric::Aar),
        Just(ScalingMetric::Is),
    ]
}

fn repr_strategy() -> impl Strategy<Value = EcqRepr> {
    prop_oneof![
        Just(EcqRepr::Auto),
        Just(EcqRepr::DenseOnly),
        Just(EcqRepr::SparseOnly),
    ]
}

/// Blocks stressing different code paths: scaled patterns (the model the
/// compressor assumes), unstructured noise (worst case for ECQ), sparse
/// outliers (the sparse representation's home turf), and constants.
fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    let geom_values = 5usize * 7 * 3; // 3¼ blocks of BlockGeometry::new(5, 7)
    prop_oneof![
        // Scaled pattern with mild per-value jitter.
        (0.0f64..1.0, 1e-10f64..1e-4).prop_map(move |(phase, amp)| {
            (0..geom_values)
                .map(|i| {
                    let sb = i / 7;
                    let scale = ((sb as f64 + phase) * 0.61).cos();
                    scale * ((i % 7) as f64 * 0.37 + phase).sin() * amp
                })
                .collect()
        }),
        // Unstructured noise spanning magnitudes.
        proptest::collection::vec(-1e-4f64..1e-4, geom_values - 11..geom_values),
        // Mostly zero with a few large outliers.
        (proptest::collection::vec(0usize..geom_values, 1..6), -1e-3f64..1e-3).prop_map(
            move |(idx, v)| {
                let mut values = vec![0.0f64; geom_values];
                for i in idx {
                    values[i] = v;
                }
                values
            }
        ),
        // Constant (pattern fit is exact; everything lands in one bin).
        (-1e-5f64..1e-5).prop_map(move |v| vec![v; geom_values]),
    ]
}

fn check_bound(original: &[f64], restored: &[f64], eb: f64, what: &str) {
    assert_eq!(original.len(), restored.len(), "{what}: length");
    for (i, (a, b)) in original.iter().zip(restored).enumerate() {
        assert!(
            (a - b).abs() <= eb,
            "{what}: |{a} - {b}| = {:e} > EB {eb:e} at index {i}",
            (a - b).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_container_respects_error_bound(
        values in values_strategy(),
        metric in metric_strategy(),
        ecq_repr in repr_strategy(),
        eb_index in 0usize..3,
        threads in 1usize..9,
    ) {
        let eb = EBS[eb_index];
        let options = CompressorOptions {
            metric,
            tree: EncodingTree::Tree5,
            ecq_repr,
            ..Default::default()
        };
        let c = Compressor::with_options(BlockGeometry::new(5, 7), eb, options);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let bytes = pool.install(|| c.compress(&values));
        let restored = pool.install(|| pastri::decompress(&bytes).unwrap());
        check_bound(&values, &restored, eb, "container");
    }
}
