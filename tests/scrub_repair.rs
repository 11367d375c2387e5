//! Golden v3 fixtures and self-healing stores, end to end.
//!
//! The golden v3 fixtures under `tests/golden/` were written by the
//! parity-emitting encoder and are committed as bytes: they pin the
//! promise that v3 containers and streams, parity section included,
//! stay decodable by every future reader. Both are decode-only layouts
//! that nothing writes, so they are never regenerated, and nothing
//! repairs them: every byte of damage, in the parity section too, must
//! fail a strict decode and `pastri verify`.
//!
//! Block stores are the artifact that heals: exhaustive store repair
//! lives in `eri-store`; here the `pastri verify`/`scrub` CLI heals and
//! quarantines stores damaged by the deterministic silent-corruption
//! injector.

use std::path::{Path, PathBuf};

use faults::BitFlipper;
mod common;

use common::{golden, golden_original, read_stream};
use eri_store::{StoreReader, StoreWriter};
use pastri::{container_bit_stats, decompress, inspect};
use pastri::{BlockGeometry, Compressor};

const EB: f64 = 1e-10;

/// The golden fixtures' geometry (matches the v1 fixtures: 81-point
/// blocks, 405 values = 5 blocks, one parity group).
fn golden_compressor() -> Compressor {
    Compressor::new(BlockGeometry::new(9, 9), EB)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

#[test]
fn golden_v3_container_decodes_with_parity_metadata() {
    let bytes = golden("v3_container.pastri");
    let original = golden_original();

    let info = inspect(&bytes).unwrap();
    assert_eq!(info.version, 3, "fixture must be a v3 container");
    assert_eq!(info.original_len, original.len());
    assert_eq!(info.parity_group, 8);
    assert_eq!(info.parity_shards, 2);
    assert!(info.parity_bytes > 0);

    let values = decompress(&bytes).unwrap();
    assert_eq!(values.len(), original.len());
    for (a, b) in original.iter().zip(&values) {
        assert!((a - b).abs() <= info.error_bound);
    }
}

#[test]
fn golden_v3_stream_decodes() {
    let original = golden_original();
    for name in ["v1_stream.pstrs", "v3_stream.pstrs"] {
        let bytes = golden(name);
        assert_eq!(bytes[5], 1, "{name} is a version-1 stream");
        let values = read_stream(&bytes).unwrap();
        assert_eq!(values.len(), original.len(), "{name}");
        for (a, b) in original.iter().zip(&values) {
            assert!((a - b).abs() <= EB, "{name}");
        }
    }
}

/// The legacy decoders fan blocks out like the v2 one: the golden v3
/// container and stream decode to the same bits at 1 and 4 threads.
#[test]
fn golden_v3_decode_identical_across_thread_counts() {
    let container = golden("v3_container.pastri");
    let stream = golden("v3_stream.pstrs");
    let baseline = pool(1).install(|| (decompress(&container).unwrap(), read_stream(&stream).unwrap()));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let threaded = pool(4).install(|| (decompress(&container).unwrap(), read_stream(&stream).unwrap()));
    assert_eq!(bits(&threaded.0), bits(&baseline.0), "container at 4 threads");
    assert_eq!(bits(&threaded.1), bits(&baseline.1), "stream at 4 threads");
}

fn run_cli(args: &[&str]) -> (Result<(), i32>, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let res = pastri_cli::run(&argv, &mut out).map_err(|e| e.code);
    (res, String::from_utf8(out).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pastri-scrub-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Flips every bit of every byte of `clean` from `from` on, one at a
/// time, and returns the positions `decodes` still accepted. A copy on
/// disk with one mask per byte must also fail `pastri verify` with exit
/// 2; the clean file verifies with exit 0.
fn accepted_flips(
    clean: &[u8],
    from: usize,
    name: &str,
    decodes: impl Fn(&[u8]) -> bool,
) -> Vec<(usize, u8)> {
    let dir = temp_dir(name);
    let path = dir.join(name);
    let path = path.to_str().unwrap();
    std::fs::write(path, clean).unwrap();
    assert_eq!(run_cli(&["verify", path]).0, Ok(()), "{name}: the clean fixture verifies");
    let mut accepted = Vec::new();
    let mut damaged = clean.to_vec();
    for pos in from..clean.len() {
        for bit in 0..8 {
            damaged[pos] ^= 1 << bit;
            if decodes(&damaged) {
                accepted.push((pos, bit));
            }
            if bit == 4 {
                std::fs::write(path, &damaged).unwrap();
                let (res, _) = run_cli(&["verify", path]);
                assert_eq!(res, Err(2), "{name}: verify of a flip at byte {pos}");
            }
            damaged[pos] ^= 1 << bit;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    accepted
}

/// Exhaustive single-bit damage over the whole golden container body:
/// frames, payloads and, with nothing left to repair from it, the
/// parity section. Every flip fails the strict decode and `verify`.
/// (Header flips are covered by the inspection sweep below.)
#[test]
fn golden_v3_every_body_byte_flip_fails_strict_decode() {
    let clean = golden("v3_container.pastri");
    assert!(inspect(&clean).unwrap().parity_bytes > 0, "the sweep reaches parity");
    // The header ends with its CRC at byte 28.
    let accepted = accepted_flips(&clean, 28, "v3.pastri", |b| decompress(b).is_ok());
    assert!(accepted.is_empty(), "flips (byte, bit) decoded: {accepted:?}");
}

/// The same sweep over the golden v3 stream after its 6-byte header:
/// segment framing, each segment's container and the terminator.
#[test]
fn golden_v3_stream_every_byte_flip_fails_strict_decode() {
    let clean = golden("v3_stream.pstrs");
    let accepted = accepted_flips(&clean, 6, "v3.pstrs", |b| read_stream(b).is_ok());
    assert!(accepted.is_empty(), "flips (byte, bit) decoded: {accepted:?}");
}

/// Inspection trusts the container no more than decoding does: every
/// single-bit flip after the magic and version — in the header, a frame
/// or the parity section — is an error for both `inspect` and
/// `container_bit_stats`, never a census of a wrong error bound,
/// geometry or block.
#[test]
fn golden_v3_header_bit_flips_fail_inspection() {
    let clean = golden("v3_container.pastri");
    assert!(inspect(&clean).is_ok() && container_bit_stats(&clean).is_ok());
    for pos in 5..clean.len() {
        for bit in 0..8 {
            let mut damaged = clean.clone();
            damaged[pos] ^= 1 << bit;
            assert!(inspect(&damaged).is_err(), "byte {pos} bit {bit}: inspect accepted");
            assert!(
                container_bit_stats(&damaged).is_err(),
                "byte {pos} bit {bit}: container_bit_stats accepted"
            );
        }
    }
}

/// v1 fixtures stay exactly as decodable as before the parity layer
/// existed, and the compressor writes the parity-free v2 layout.
#[test]
fn golden_v1_and_v2_layouts_unchanged() {
    let v1 = golden("v1_container.pastri");
    assert_eq!(inspect(&v1).unwrap().version, 1);
    let values = decompress(&v1).unwrap();
    assert_eq!(values.len(), golden_original().len());

    let v2 = golden_compressor().compress(&golden_original());
    let info = inspect(&v2).unwrap();
    assert_eq!(info.version, 2, "the compressor writes the v2 layout");
    assert_eq!(info.parity_bytes, 0);
}

// ---------------------------------------------------------------------
// Stores through the CLI, with the deterministic silent-corruption
// injector.

fn patterned(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 83) as f64 * 0.19).sin() * 2.5e-6)
        .collect()
}

/// A finished 20-block store (three stripes) at `path`; returns its
/// bytes.
fn big_store(path: &Path) -> Vec<u8> {
    let mut w = StoreWriter::create_durable(path, golden_compressor().geometry(), EB, 20).unwrap();
    w.append_blocks(&patterned(81 * 20)).unwrap();
    w.finish().unwrap();
    std::fs::read(path).unwrap()
}

/// The flagship CLI journey: a store suffers seeded SDC inside one
/// block; `verify` flags it as repairable (exit 2), `scrub --repair`
/// heals it in place back to the clean bytes, and `verify` then reports
/// it clean.
#[test]
fn cli_scrub_heals_injected_silent_corruption() {
    let dir = temp_dir("heal");
    let path = dir.join("data.eristore");
    let clean = big_store(&path);

    // One flipped bit inside block 9's container, chosen by the seeded
    // injector so the run is reproducible.
    let (offset, len) = common::block_span(&clean, 9);
    BitFlipper::new(offset + 8, offset + len, 1, 0xC0FFEE)
        .apply_to_file(&path)
        .unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), clean, "injection must land");

    let (res, report) = run_cli(&["verify", path.to_str().unwrap()]);
    assert_eq!(res, Err(2), "damage must fail verification");
    assert!(report.contains("block 9 ") && report.contains("repairable"), "{report}");

    let (res, _) = run_cli(&["scrub", path.to_str().unwrap(), "--repair"]);
    assert!(res.is_ok(), "scrub --repair must heal within the budget");
    assert_eq!(std::fs::read(&path).unwrap(), clean, "heal is byte-identical");

    let (res, _) = run_cli(&["verify", path.to_str().unwrap()]);
    assert!(res.is_ok(), "healed artifact must verify clean");
    std::fs::remove_dir_all(&dir).ok();
}

/// Beyond the parity budget, the CLI degrades gracefully: scrub exits 2,
/// quarantines the damaged original, and the rewritten store still
/// reads every other block bit-exact.
#[test]
fn cli_scrub_quarantines_beyond_budget_damage() {
    let dir = temp_dir("quarantine");
    let path = dir.join("data.eristore");
    let clean = big_store(&path);
    let want: Vec<Vec<f64>> = {
        let reader = StoreReader::open(&path).unwrap();
        (0..20).map(|i| reader.read_block(i).unwrap()).collect()
    };
    let mut damaged = clean.clone();
    common::shred_beyond_budget(&mut damaged, 9);
    std::fs::write(&path, &damaged).unwrap();

    let (res, report) = run_cli(&["scrub", path.to_str().unwrap(), "--repair"]);
    assert_eq!(res, Err(2), "beyond-budget damage cannot fully repair");
    assert!(report.contains("quarantine") || report.contains("beyond"), "{report}");
    let q = dir.join("data.eristore.quarantine");
    assert_eq!(
        std::fs::read(&q).unwrap(),
        damaged,
        "quarantine must preserve the damaged original"
    );

    let reader = StoreReader::open(&path).unwrap();
    for (i, want) in want.iter().enumerate() {
        match reader.read_block(i) {
            Ok(values) => assert_eq!(&values, want, "block {i} must be bit-exact"),
            Err(e) => assert_eq!(i, 9, "block {i} lost: {e}"),
        }
    }
    assert!(reader.read_block(9).is_err(), "exactly the shredded block is lost");
    std::fs::remove_dir_all(&dir).ok();
}

/// A durable (crash-safe) run's artifact is also a self-healing one:
/// interrupt-free finish, then an SDC flip, then `scrub --repair`
/// restores the byte-exact store.
#[test]
fn durable_store_artifact_scrubs_clean_after_flip() {
    let dir = temp_dir("durable");
    let path = dir.join("run.eristore");
    let geometry = golden_compressor().geometry();
    let mut w = StoreWriter::create_durable(&path, geometry, EB, 2).unwrap();
    w.append_blocks(&patterned(81 * 6)).unwrap();
    w.finish().unwrap();
    let clean = std::fs::read(&path).unwrap();

    // Aim the injector at the middle of block 2's container.
    let (offset, len) = common::block_span(&clean, 2);
    let at = offset + len / 2;
    BitFlipper::new(at, at + 8, 1, 42).apply_to_file(&path).unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), clean);

    let (res, _) = run_cli(&["scrub", path.to_str().unwrap(), "--repair"]);
    assert!(res.is_ok(), "one flip is within every stripe's budget");
    assert_eq!(std::fs::read(&path).unwrap(), clean);
    assert!(StoreReader::open(&path).unwrap().scrub().unwrap().is_clean());
    std::fs::remove_dir_all(&dir).ok();
}
