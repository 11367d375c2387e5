//! Quickstart: compress an ERI dataset with PaSTRI and verify the error
//! bound.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pastri::{BlockGeometry, Compressor};
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::Molecule;

fn main() {
    // 1. Generate a (dd|dd) ERI dataset for benzene — the stand-in for a
    //    GAMESS integral file. Each block is one shell quartet:
    //    6×6×6×6 = 1296 doubles, 36 sub-blocks of 36.
    let config = BfConfig::dd_dd();
    let spec = DatasetSpec {
        molecule: Molecule::benzene(),
        config,
        max_blocks: 64,
        seed: 42,
    };
    let dataset = EriDataset::generate(&spec);
    println!(
        "dataset: {} — {} blocks, {:.2} MB",
        dataset.label,
        dataset.num_blocks(),
        dataset.byte_size() as f64 / 1e6
    );

    // 2. Build a compressor: block geometry from the BF configuration,
    //    absolute error bound 1e-10 (the GAMESS-typical requirement).
    let error_bound = 1e-10;
    let compressor = Compressor::new(BlockGeometry::from_dims(config.dims()), error_bound);

    // 3. Compress, then read the container's statistics back from its
    //    bytes.
    let compressed = compressor.compress(&dataset.values);
    let stats = pastri::container_bit_stats(&compressed).expect("a container just written");
    println!(
        "compressed {} -> {} bytes (ratio {:.2}x, {:.2} bits/double)",
        dataset.byte_size(),
        compressed.len(),
        stats.compression_ratio(),
        stats.bitrate()
    );
    let types = stats.block_types();
    println!(
        "block types: {:.0}% pattern-only, {:.0}% tiny-EC, {:.0}% medium, {:.0}% large",
        types[0].fraction * 100.0,
        types[1].fraction * 100.0,
        types[2].fraction * 100.0,
        types[3].fraction * 100.0
    );

    // 4. Decompress and verify every point is within the bound.
    let restored = compressor.decompress(&compressed).expect("valid stream");
    assert_eq!(restored.len(), dataset.values.len());
    let max_err = dataset
        .values
        .iter()
        .zip(&restored)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max abs error: {max_err:.3e} (bound {error_bound:.0e})");
    assert!(max_err <= error_bound);

    // 5. Quality metrics via the Z-Checker stand-in.
    let a = zcheck::assess(&dataset.values, &restored, compressed.len());
    println!("PSNR: {:.1} dB over value range {:.3e}", a.psnr, a.value_range);
    println!("OK — error bound respected on every point.");
}
