//! Cross-compressor integration: every lossy codec honours the same
//! error-bound contract on the same data, and the paper's headline
//! ordering (PaSTRI ≫ SZ, ZFP on ERI data) holds end-to-end.

use pastri::{BlockGeometry, Compressor};
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::Molecule;

fn eri_data() -> EriDataset {
    EriDataset::generate(&DatasetSpec {
        molecule: Molecule::tri_alanine().cluster(3, 4.5),
        config: BfConfig::dd_dd(),
        max_blocks: 80,
        seed: 0xc0de,
    })
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn all_lossy_codecs_respect_the_bound() {
    let ds = eri_data();
    for eb in [1e-8, 1e-10, 1e-12] {
        let geom = BlockGeometry::from_dims(ds.config.dims());
        let p = Compressor::new(geom, eb);
        let back = p.decompress(&p.compress(&ds.values)).unwrap();
        assert!(max_err(&ds.values, &back) <= eb, "pastri eb {eb:e}");

        let s = sz_lossy::SzCompressor::new(eb);
        let back = s.decompress(&s.compress(&ds.values)).unwrap();
        assert!(max_err(&ds.values, &back) <= eb, "sz eb {eb:e}");

        let z = zfp_lossy::ZfpCompressor::new(eb);
        let back = z.decompress(&z.compress(&ds.values)).unwrap();
        assert!(max_err(&ds.values, &back) <= eb, "zfp eb {eb:e}");
    }
}

#[test]
fn pastri_beats_baselines_on_eri_data() {
    // The headline claim (Fig. 9(a)): a clear multiple, not a margin.
    let ds = eri_data();
    let eb = 1e-10;
    let geom = BlockGeometry::from_dims(ds.config.dims());
    let pastri_len = Compressor::new(geom, eb).compress(&ds.values).len();
    let sz_len = sz_lossy::SzCompressor::new(eb).compress(&ds.values).len();
    let zfp_len = zfp_lossy::ZfpCompressor::new(eb).compress(&ds.values).len();
    assert!(
        pastri_len * 3 < sz_len * 2,
        "pastri {pastri_len} vs sz {sz_len}: expected ≥1.5x win"
    );
    assert!(
        pastri_len * 3 < zfp_len * 2,
        "pastri {pastri_len} vs zfp {zfp_len}: expected ≥1.5x win"
    );
}

#[test]
fn lossless_codecs_are_bit_exact_but_weak() {
    // Related-work claim: lossless CR ~1.1–2 on this data.
    let ds = eri_data();
    let raw = (ds.values.len() * 8) as f64;

    let gz = lossless::deflate_like::compress_doubles(&ds.values);
    let back = lossless::deflate_like::decompress_doubles(&gz).unwrap();
    assert!(ds.values.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()));
    let gz_cr = raw / gz.len() as f64;

    let fpc = lossless::fpc::compress(&ds.values);
    let back = lossless::fpc::decompress(&fpc).unwrap();
    assert!(ds.values.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()));
    let fpc_cr = raw / fpc.len() as f64;

    for (name, cr) in [("gzip-like", gz_cr), ("fpc", fpc_cr)] {
        assert!(cr > 0.95 && cr < 3.0, "{name}: CR {cr} outside the lossless regime");
    }

    // And any lossy codec at 1e-10 beats both.
    let eb = 1e-10;
    let geom = BlockGeometry::from_dims(ds.config.dims());
    let lossy_cr = raw / Compressor::new(geom, eb).compress(&ds.values).len() as f64;
    assert!(lossy_cr > 2.0 * gz_cr.max(fpc_cr));
}

#[test]
fn codecs_handle_each_others_streams_gracefully() {
    // Feeding one codec's container to another must error, not panic.
    let ds = eri_data();
    let eb = 1e-10;
    let geom = BlockGeometry::from_dims(ds.config.dims());
    let p_bytes = Compressor::new(geom, eb).compress(&ds.values[..1296]);
    let s_bytes = sz_lossy::SzCompressor::new(eb).compress(&ds.values[..1296]);
    let z_bytes = zfp_lossy::ZfpCompressor::new(eb).compress(&ds.values[..1296]);

    assert!(pastri::decompress(&s_bytes).is_err());
    assert!(pastri::decompress(&z_bytes).is_err());
    assert!(sz_lossy::decompress(&p_bytes).is_err());
    assert!(sz_lossy::decompress(&z_bytes).is_err());
    assert!(zfp_lossy::decompress(&p_bytes).is_err());
    assert!(zfp_lossy::decompress(&s_bytes).is_err());
}

#[test]
fn rate_distortion_dominance() {
    // Fig. 9(b) as an invariant: at every error bound, PaSTRI's output is
    // smaller than both baselines on patterned ERI data.
    let ds = eri_data();
    let geom = BlockGeometry::from_dims(ds.config.dims());
    for eb in [1e-9, 1e-10, 1e-11] {
        let p = Compressor::new(geom, eb).compress(&ds.values).len();
        let s = sz_lossy::SzCompressor::new(eb).compress(&ds.values).len();
        let z = zfp_lossy::ZfpCompressor::new(eb).compress(&ds.values).len();
        assert!(p < s && p < z, "eb {eb:e}: pastri {p}, sz {s}, zfp {z}");
    }
}
