//! Self-healing end to end: golden v3 fixtures, exhaustive single-block
//! corruption repair, repair-on-read determinism across thread counts,
//! beyond-budget degradation, and the `pastri scrub` CLI driven by the
//! deterministic silent-corruption injector.
//!
//! The golden v3 fixtures under `tests/golden/` were written by the
//! first parity-emitting encoder and are committed as bytes: they pin
//! the promise that v3 containers and streams — parity section
//! included — remain decodable *and repairable* by every future reader.
//! Regenerate the container (only when the container version itself
//! moves on) with:
//! `PASTRI_REGEN_GOLDEN=1 cargo test --test scrub_repair regen`.
//! `v3_stream.pstrs` is a version-1 stream, a frozen layout today's
//! writer no longer produces, so it is never regenerated.

use std::path::{Path, PathBuf};

use faults::BitFlipper;
use pastri::stream::{salvage, Frame, Frames, StreamReader, StreamWriter};
use pastri::{container_bit_stats, decompress, decompress_lossy, inspect, repair_container};
use pastri::{BlockGeometry, Compressor};

const EB: f64 = 1e-10;

/// The golden fixtures' geometry (matches the v1 fixtures: 81-point
/// blocks, 405 values = 5 blocks, one parity group).
fn golden_compressor() -> Compressor {
    Compressor::new(BlockGeometry::new(9, 9), EB)
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> Vec<u8> {
    let path = golden_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

fn golden_original() -> Vec<f64> {
    golden("v1_original.f64")
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// Fixture (re)generation, gated behind an env var so it is inert in CI.
/// The v3 container compresses the *same* original as the v1 fixtures,
/// so one raw file serves both generations.
#[test]
fn regen_golden_v3_fixtures() {
    if std::env::var("PASTRI_REGEN_GOLDEN").is_err() {
        return;
    }
    let original = golden_original();
    let container = golden_compressor().compress(&original);
    assert_eq!(inspect(&container).unwrap().version, 3);
    std::fs::write(golden_dir().join("v3_container.pastri"), &container).unwrap();
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
    let lossy = decompress_lossy(&bytes).unwrap();
    assert!(lossy.is_clean());
    assert_eq!(lossy.repaired(), 0);
    assert_eq!(lossy.values, values);
}

#[test]
fn golden_v3_stream_decodes() {
    let bytes = golden("v3_stream.pstrs");
    let original = golden_original();
    assert_eq!(bytes[5], 1, "the fixture is a version-1 stream");
    let values = StreamReader::new(bytes.as_slice())
        .unwrap()
        .read_to_vec()
        .unwrap();
    assert_eq!(values.len(), original.len());
    for (a, b) in original.iter().zip(&values) {
        assert!((a - b).abs() <= EB);
    }
    // Both golden streams verify clean, and salvage keeps their v1 bytes.
    for name in ["v1_stream.pstrs", "v3_stream.pstrs"] {
        let bytes = golden(name);
        let mut out = Vec::new();
        assert!(salvage(bytes.as_slice(), &mut out).unwrap().is_clean(), "{name}");
        assert_eq!(out, bytes, "{name}");
    }
}

/// `[start, end)` of segment `i`'s container in a stream.
fn segment_range(stream: &[u8], i: usize) -> (usize, usize) {
    Frames::new(stream)
        .unwrap()
        .filter_map(|frame| match frame.unwrap() {
            Frame::Segment { at, container } => Some((at as usize, at as usize + container.len())),
            Frame::Commit { .. } => None,
        })
        .nth(i)
        .unwrap()
}

/// The writer is still deterministic over the fixture's input: the
/// committed bytes are exactly what today's encoder produces. This is
/// the property `repair_container` leans on to promise *byte-identical*
/// repair of old containers.
#[test]
fn golden_v3_fixture_matches_current_writer() {
    let original = golden_original();
    assert_eq!(
        golden_compressor().compress(&original),
        golden("v3_container.pastri"),
        "v3 container writer drifted — bump the format version instead"
    );
}

/// Exhaustive single-byte corruption over the entire golden container
/// body: every flip repairs back to the committed bytes. (The header is
/// excluded: header damage is a documented hard error — without a
/// trusted header there is no geometry to frame blocks with.)
#[test]
fn golden_v3_every_body_byte_flip_repairs_byte_identical() {
    let clean = golden("v3_container.pastri");
    let header_len = {
        // First block's framing offset = end of the header region.
        let lossy = decompress_lossy(&clean).unwrap();
        lossy.outcomes[0].offset as usize
    };
    for pos in header_len..clean.len() {
        let mut damaged = clean.clone();
        damaged[pos] ^= 0x10;
        let (repaired, report) = repair_container(&damaged)
            .unwrap_or_else(|e| panic!("offset {pos}: repair errored: {e}"));
        assert!(report.is_fully_repaired(), "offset {pos}: {report:?}");
        assert!(!report.is_clean(), "offset {pos}: flip went undetected");
        assert_eq!(repaired, clean, "offset {pos}: repair not byte-identical");
    }
}

/// Inspection trusts the header no more than decoding does: every
/// single-bit flip after the magic and version, up to the end of the
/// header CRC (byte 28 of the golden container), is an error for both
/// `inspect` and `container_bit_stats` — never a census of a wrong
/// error bound or geometry.
#[test]
fn golden_v3_header_bit_flips_fail_inspection() {
    let clean = golden("v3_container.pastri");
    assert!(inspect(&clean).is_ok() && container_bit_stats(&clean).is_ok());
    for pos in 5..28 {
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
/// existed, and the parity-free option still writes v2 — the self-healing
/// release changes nothing for either older generation.
#[test]
fn golden_v1_and_v2_layouts_unchanged() {
    let v1 = golden("v1_container.pastri");
    assert_eq!(inspect(&v1).unwrap().version, 1);
    let values = decompress(&v1).unwrap();
    assert_eq!(values.len(), golden_original().len());

    let opts = pastri::CompressorOptions {
        parity: pastri::ParityConfig::NONE,
        ..Default::default()
    };
    let c = Compressor::with_options(BlockGeometry::new(9, 9), EB, opts);
    let v2 = c.compress(&golden_original());
    let info = inspect(&v2).unwrap();
    assert_eq!(info.version, 2, "ParityConfig::NONE must keep the v2 layout");
    assert_eq!(info.parity_bytes, 0);
}

/// Larger-scale data for the repair-on-read and CLI scenarios: several
/// parity groups, deterministic content.
fn patterned(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 83) as f64 * 0.19).sin() * 2.5e-6)
        .collect()
}

fn big_container() -> (Vec<f64>, Vec<u8>) {
    let values = patterned(81 * 20); // 20 blocks = 3 parity groups
    let bytes = golden_compressor().compress(&values);
    (values, bytes)
}

/// Every single-block corruption in a parity-protected container repairs
/// byte-identical — one damaged payload per block, all blocks swept.
#[test]
fn every_single_block_corruption_repairs_byte_identical() {
    let (_, clean) = big_container();
    let outcomes = decompress_lossy(&clean).unwrap().outcomes;
    for o in &outcomes {
        let mut damaged = clean.clone();
        damaged[o.offset as usize + 8] ^= 0xff; // inside the block payload
        let (repaired, report) = repair_container(&damaged).unwrap();
        assert_eq!(report.repaired_blocks, vec![o.block]);
        assert!(report.unrepairable_blocks.is_empty());
        assert_eq!(repaired, clean, "block {}: repair not byte-identical", o.block);
    }
}

/// Repair-on-read returns the same values as an undamaged read, at 1 and
/// 4 threads — the parallel decode fan-out must not perturb repair.
#[test]
fn repair_on_read_identical_across_thread_counts() {
    let (_, clean) = big_container();
    let baseline = decompress(&clean).unwrap();
    let outcomes = decompress_lossy(&clean).unwrap().outcomes;

    let mut damaged = clean.clone();
    damaged[outcomes[5].offset as usize + 8] ^= 0x40;
    damaged[outcomes[13].offset as usize + 8] ^= 0x40;

    for threads in [1usize, 4] {
        let lossy = pool(threads)
            .install(|| decompress_lossy(&damaged))
            .unwrap();
        assert!(lossy.is_clean(), "threads={threads}");
        assert_eq!(lossy.repaired(), 2, "threads={threads}");
        assert_eq!(
            lossy.values, baseline,
            "repaired read must be bit-exact at {threads} threads"
        );
    }
}

/// Damage past the parity budget (3 payloads in one 8-block group, 2
/// parity shards) degrades gracefully: the overwhelmed blocks are
/// skipped and attributed, every other block still decodes bit-exact.
#[test]
fn beyond_budget_damage_degrades_to_attributed_skip() {
    let (_, clean) = big_container();
    let baseline = decompress(&clean).unwrap();
    let outcomes = decompress_lossy(&clean).unwrap().outcomes;
    let bs = inspect(&clean).unwrap().geometry.block_size();

    let mut damaged = clean.clone();
    for b in [0usize, 1, 2] {
        // first parity group holds blocks 0..8
        damaged[outcomes[b].offset as usize + 8] ^= 0x55;
    }

    let (_, report) = repair_container(&damaged).unwrap();
    assert_eq!(report.unrepairable_blocks, vec![0, 1, 2]);

    let lossy = decompress_lossy(&damaged).unwrap();
    assert_eq!(lossy.damaged(), 3);
    for o in &lossy.outcomes {
        if o.block < 3 {
            assert!(!o.is_ok(), "block {} should be beyond the budget", o.block);
        } else {
            assert!(o.is_ok(), "block {} must survive", o.block);
            let range = o.block * bs..((o.block + 1) * bs).min(baseline.len());
            assert_eq!(
                &lossy.values[range.clone()],
                &baseline[range],
                "surviving block {} must be bit-exact",
                o.block
            );
        }
    }
}

/// Streams heal too: a mid-segment flip salvages losslessly back to the
/// original bytes, with the repair attributed to its segment.
#[test]
fn stream_flip_salvages_to_original_bytes() {
    let values = patterned(81 * 6);
    let mut clean = Vec::new();
    let mut w = StreamWriter::new(&mut clean, golden_compressor(), 2, 2).unwrap();
    w.write_values(&values).unwrap();
    w.finish().unwrap();

    let mut damaged = clean.clone();
    let (start, end) = segment_range(&clean, 1);
    damaged[(start + end) / 2] ^= 0x02;

    let mut healed = Vec::new();
    let report = salvage(damaged.as_slice(), &mut healed).unwrap();
    assert!(report.is_lossless());
    assert_eq!(report.repaired.len(), 1);
    assert_eq!(healed, clean);
}

// ---------------------------------------------------------------------
// CLI end to end, with the deterministic silent-corruption injector.

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

/// The flagship CLI journey: a container suffers seeded SDC inside one
/// block payload; `verify` flags it as repairable (exit 2), `scrub
/// --repair` heals it in place back to the clean bytes, and `verify`
/// then reports it clean.
#[test]
fn cli_scrub_heals_injected_silent_corruption() {
    let dir = temp_dir("heal");
    let path = dir.join("data.pastri");
    let (_, clean) = big_container();
    std::fs::write(&path, &clean).unwrap();

    // One flipped bit inside block 9's payload, chosen by the seeded
    // injector so the run is reproducible.
    let o9 = &decompress_lossy(&clean).unwrap().outcomes[9];
    let payload_at = o9.offset + 8;
    BitFlipper::new(payload_at, payload_at + 16, 1, 0xC0FFEE)
        .apply_to_file(&path)
        .unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), clean, "injection must land");

    let (res, report) = run_cli(&["verify", path.to_str().unwrap()]);
    assert_eq!(res, Err(2), "damage must fail verification");
    assert!(report.contains("repairable"), "verify must classify: {report}");

    let (res, _) = run_cli(&["scrub", path.to_str().unwrap(), "--repair"]);
    assert!(res.is_ok(), "scrub --repair must heal within the budget");
    assert_eq!(std::fs::read(&path).unwrap(), clean, "heal is byte-identical");

    let (res, _) = run_cli(&["verify", path.to_str().unwrap()]);
    assert!(res.is_ok(), "healed artifact must verify clean");
    std::fs::remove_dir_all(&dir).ok();
}

/// Beyond the parity budget, the CLI degrades gracefully: scrub exits 2,
/// quarantines the damaged original, and the rewritten artifact still
/// yields every surviving block via the lossy reader.
#[test]
fn cli_scrub_quarantines_beyond_budget_damage() {
    let dir = temp_dir("quarantine");
    let path = dir.join("data.pastri");
    let (_, clean) = big_container();
    let outcomes = decompress_lossy(&clean).unwrap().outcomes;
    let mut damaged = clean.clone();
    for b in [8usize, 9, 10] {
        // second parity group
        damaged[outcomes[b].offset as usize + 8] ^= 0x55;
    }
    std::fs::write(&path, &damaged).unwrap();

    let (res, report) = run_cli(&["scrub", path.to_str().unwrap(), "--repair"]);
    assert_eq!(res, Err(2), "beyond-budget damage cannot fully repair");
    assert!(report.contains("quarantine") || report.contains("beyond"), "{report}");
    let q = dir.join("data.pastri.quarantine");
    assert_eq!(
        std::fs::read(&q).unwrap(),
        damaged,
        "quarantine must preserve the damaged original"
    );

    let lossy = decompress_lossy(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(lossy.damaged(), 3, "exactly the overwhelmed blocks are lost");
    std::fs::remove_dir_all(&dir).ok();
}

/// A durable (crash-safe) run's artifact is also a self-healing one:
/// interrupt-free finish, then an SDC flip, then `scrub --repair`
/// restores the byte-exact stream.
#[test]
fn durable_stream_artifact_scrubs_clean_after_flip() {
    let dir = temp_dir("durable");
    let path = dir.join("run.pstrs");
    let values = patterned(81 * 6);
    let mut w = StreamWriter::create(&path, golden_compressor(), 1, 2).unwrap();
    w.write_values(&values).unwrap();
    w.finish().unwrap();
    let clean = std::fs::read(&path).unwrap();

    // Aim the injector at the middle of segment 2's container payload
    // (a flip on the stream *framing* varints would sever the tail —
    // that degradation is covered by the salvage tests).
    let (seg_start, seg_end) = segment_range(&clean, 2);
    let at = ((seg_start + seg_end) / 2) as u64;
    BitFlipper::new(at, at + 8, 1, 42).apply_to_file(&path).unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), clean);

    let (res, _) = run_cli(&["scrub", path.to_str().unwrap(), "--repair"]);
    assert!(res.is_ok(), "one flip is within every segment's budget");
    assert_eq!(std::fs::read(&path).unwrap(), clean);
    std::fs::remove_dir_all(&dir).ok();
}
