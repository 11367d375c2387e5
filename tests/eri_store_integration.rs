//! Integration: the disk-backed compressed ERI store fed by the analytic
//! integral engine — the paper's "store ERIs on disk in compressed form"
//! infrastructure end-to-end.

use eri_store::{StoreReader, StoreWriter};
use pastri::BlockGeometry;
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::Molecule;

fn store_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("eri-store-it-{}-{name}", std::process::id()))
}

#[test]
fn analytic_dataset_through_disk_store() {
    let config = BfConfig::dd_dd();
    let ds = EriDataset::generate(&DatasetSpec {
        molecule: Molecule::benzene().cluster(2, 4.5),
        config,
        max_blocks: 24,
        seed: 77,
    });
    let geom = BlockGeometry::from_dims(config.dims());
    let eb = 1e-10;
    let path = store_path("analytic");

    // Write block by block, as an integral program would during generation.
    let mut w = StoreWriter::create(&path, geom, eb).unwrap();
    for b in 0..ds.num_blocks() {
        w.append_block(ds.block(b)).unwrap();
    }
    assert_eq!(w.finish().unwrap(), ds.num_blocks());

    let disk_bytes = std::fs::metadata(&path).unwrap().len();
    let ratio = ds.byte_size() as f64 / disk_bytes as f64;
    assert!(ratio > 2.0, "on-disk ratio only {ratio:.2}");

    // SCF-iteration access pattern: repeated passes over subsets.
    let r = StoreReader::open(&path).unwrap();
    for _iteration in 0..3 {
        for b in (0..ds.num_blocks()).step_by(3) {
            let block = r.read_block(b).unwrap();
            for (orig, got) in ds.block(b).iter().zip(&block) {
                assert!((orig - got).abs() <= eb);
            }
        }
    }
    // And a full sequential pass matches the stream.
    let all = r.read_all().unwrap();
    assert_eq!(all.len(), ds.values.len());
    for (orig, got) in ds.values.iter().zip(&all) {
        assert!((orig - got).abs() <= eb);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn store_survives_many_small_blocks() {
    let geom = BlockGeometry::new(4, 9);
    let path = store_path("many");
    let eb = 1e-9;
    let n = 500usize;
    {
        let mut w = StoreWriter::create(&path, geom, eb).unwrap();
        for b in 0..n {
            let block: Vec<f64> = (0..geom.block_size())
                .map(|i| ((i + b) as f64 * 0.21).sin() * 1e-5)
                .collect();
            w.append_block(&block).unwrap();
        }
        w.finish().unwrap();
    }
    let r = StoreReader::open(&path).unwrap();
    assert_eq!(r.num_blocks(), n);
    // Spot-check first, middle, last.
    for &b in &[0usize, n / 2, n - 1] {
        let block = r.read_block(b).unwrap();
        let expect: Vec<f64> = (0..geom.block_size())
            .map(|i| ((i + b) as f64 * 0.21).sin() * 1e-5)
            .collect();
        for (a, g) in expect.iter().zip(&block) {
            assert!((a - g).abs() <= eb);
        }
    }
    let _ = std::fs::remove_file(&path);
}
