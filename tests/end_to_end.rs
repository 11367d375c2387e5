//! Cross-crate integration: the full paper pipeline from molecule to
//! verified compressed integrals.
//!
//! qchem (GAMESS stand-in) → pastri (the contribution) → zcheck
//! (assessment), across BF configurations and error bounds.

use pastri::{BlockGeometry, Compressor};
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::Molecule;

fn dataset(mol: &str, config: BfConfig, blocks: usize) -> EriDataset {
    EriDataset::generate(&DatasetSpec {
        molecule: Molecule::by_name(mol).unwrap().cluster(2, 4.5),
        config,
        max_blocks: blocks,
        seed: 0xe2e,
    })
}

#[test]
fn full_pipeline_dd_dd_all_error_bounds() {
    let config = BfConfig::dd_dd();
    let ds = dataset("benzene", config, 40);
    for eb in [1e-9, 1e-10, 1e-11] {
        let c = Compressor::new(BlockGeometry::from_dims(config.dims()), eb);
        let bytes = c.compress(&ds.values);
        let stats = pastri::container_bit_stats(&bytes).unwrap();
        let back = c.decompress(&bytes).unwrap();
        let a = zcheck::assess(&ds.values, &back, bytes.len());
        assert!(a.max_abs_err <= eb, "eb {eb:e}: max err {:e}", a.max_abs_err);
        assert!(a.compression_ratio() > 2.0, "eb {eb:e}: CR {}", a.compression_ratio());
        assert_eq!(stats.compressed_bytes as usize, bytes.len());
        // Tighter bound -> more bits.
        assert!(a.psnr > 120.0);
    }
}

#[test]
fn full_pipeline_ff_ff() {
    let config = BfConfig::ff_ff();
    let ds = dataset("benzene", config, 8);
    assert_eq!(ds.values.len() % 10_000, 0, "(ff|ff) blocks are 10^4 points");
    let eb = 1e-10;
    let c = Compressor::new(BlockGeometry::from_dims(config.dims()), eb);
    let bytes = c.compress(&ds.values);
    let back = c.decompress(&bytes).unwrap();
    let a = zcheck::assess(&ds.values, &back, bytes.len());
    assert!(a.max_abs_err <= eb);
    assert!(a.compression_ratio() > 2.0);
}

#[test]
fn hybrid_configuration_fd_ff() {
    // The paper's worked example block shape: 10·6·10·10 = 6000 points,
    // 60 sub-blocks of 100.
    let config = BfConfig::fd_ff();
    assert_eq!(config.block_size(), 6000);
    let ds = dataset("glutamine", config, 6);
    let c = Compressor::new(BlockGeometry::from_dims(config.dims()), 1e-10);
    let back = c.decompress(&c.compress(&ds.values)).unwrap();
    for (a, b) in ds.values.iter().zip(&back) {
        assert!((a - b).abs() <= 1e-10);
    }
}

#[test]
fn geometry_mismatch_still_bounded() {
    // Feeding data through the *wrong* geometry (user error) must still
    // respect the error bound — only the ratio suffers.
    let config = BfConfig::dd_dd();
    let ds = dataset("benzene", config, 10);
    let wrong_geom = BlockGeometry::new(12, 108); // still 1296/block
    let c = Compressor::new(wrong_geom, 1e-10);
    let back = c.decompress(&c.compress(&ds.values)).unwrap();
    for (a, b) in ds.values.iter().zip(&back) {
        assert!((a - b).abs() <= 1e-10);
    }
}

#[test]
fn error_autocorrelation_is_weak() {
    // PaSTRI's residual quantization noise should not carry long-range
    // structure (Z-Checker-style artifact check).
    let config = BfConfig::dd_dd();
    let ds = dataset("glutamine", config, 30);
    let c = Compressor::new(BlockGeometry::from_dims(config.dims()), 1e-10);
    let back = c.decompress(&c.compress(&ds.values)).unwrap();
    for lag in [1usize, 36, 1296] {
        let ac = zcheck::error_autocorrelation(&ds.values, &back, lag);
        assert!(ac.abs() < 0.6, "lag {lag}: autocorrelation {ac}");
    }
}

#[test]
fn model_and_analytic_generators_agree_statistically() {
    // The far-field model is the scale substitute for analytic data
    // (DESIGN.md §2); its compression behaviour must be in the same
    // regime: CR within a factor ~4, same dominant block types.
    let config = BfConfig::dd_dd();
    let analytic = dataset("alanine", config, 60);
    let model = EriDataset::generate_model(config, 60, 5);
    let c = Compressor::new(BlockGeometry::from_dims(config.dims()), 1e-10);
    let sa = pastri::container_bit_stats(&c.compress(&analytic.values)).unwrap();
    let sm = pastri::container_bit_stats(&c.compress(&model.values)).unwrap();
    let (cra, crm) = (sa.compression_ratio(), sm.compression_ratio());
    assert!(
        crm / cra < 8.0 && cra / crm < 8.0,
        "model CR {crm:.1} vs analytic CR {cra:.1} diverge"
    );
    // Both should be pattern-compressible overall (CR >> lossless ~1.5).
    assert!(cra > 3.0 && crm > 3.0);
}

#[test]
fn decompression_is_order_independent_of_parallelism() {
    // Same bytes decoded under different rayon pool sizes are identical.
    let config = BfConfig::dd_dd();
    let ds = dataset("benzene", config, 20);
    let c = Compressor::new(BlockGeometry::from_dims(config.dims()), 1e-10);
    let bytes = c.compress(&ds.values);
    let a = c.decompress(&bytes).unwrap();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let b = pool.install(|| c.decompress(&bytes).unwrap());
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}
