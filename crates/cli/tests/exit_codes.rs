//! Table-driven check of the CLI exit-code contract.
//!
//! Scripts gate on these codes (see `pastri_cli::usage()`):
//!
//! * `0` — success / artifact clean
//! * `1` — I/O or usage error (missing file, bad flag, unknown format)
//! * `2` — corruption found in a recognized PaSTRI artifact, a soak
//!   run that lost data / violated an SLO gate, or a cache-server
//!   read that hit a block beyond the parity budget
//!
//! Every subcommand with a meaningful clean / I/O-error / corruption
//! split is exercised through the public `pastri_cli::run` entry point,
//! exactly as the binary drives it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The tests here drive the CLI in-process, and `soak`, `serve --listen`
/// and `--telemetry` reset or toggle the one process-wide telemetry
/// recorder: a `serve` in one test could wipe the read histogram a
/// `soak` in another is gating on, turning its SLO row into a vacuous
/// pass. Each test holds this lock from start to end.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the others still run.
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pastri-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sv(words: &[&str]) -> Vec<String> {
    words.iter().map(|s| (*s).to_string()).collect()
}

/// Run the CLI and reduce the result to the process exit code.
fn exit_code(argv: &[String]) -> i32 {
    match pastri_cli::run(argv, &mut Vec::new()) {
        Ok(()) => 0,
        Err(e) => e.code,
    }
}

fn p(path: &Path, name: &str) -> String {
    path.join(name).to_string_lossy().into_owned()
}

/// Builds a small seeded ERI store for the `serve` rows (same patterned-block fixture the integration tests use).
fn build_server_store(path: &str, n: usize) {
    let geom = pastri::BlockGeometry::new(4, 16);
    let mut w = eri_store::StoreWriter::create_durable(Path::new(path), geom, 1e-10, n.max(1)).unwrap();
    for b in 0..n {
        let mut block = Vec::with_capacity(geom.block_size());
        for sb in 0..geom.num_subblocks {
            let s = ((sb + b) as f64 * 0.61).cos();
            for i in 0..geom.subblock_size {
                block.push(s * ((i + b) as f64 * 0.37).sin() * 1e-6);
            }
        }
        w.append_blocks(&block).unwrap();
    }
    w.finish().unwrap();
}

/// Bytes of the `ReadResponse` frame that serves `blocks` of the store
/// at `path`: frame header, request id and count, then a status byte,
/// a length and the stored container per block, then the frame CRC.
fn read_response_frame_len(path: &str, blocks: std::ops::Range<usize>) -> u64 {
    let bytes = fs::read(path).unwrap();
    let (_, index) = eri_store::committed_index(&bytes[..]).unwrap();
    12 + 12 + index.blocks[blocks].iter().map(|b| 5 + b.len).sum::<u64>() + 4
}

/// Shreds stored block `i`'s container and its stripe's parity record —
/// beyond the two-shard parity budget by construction, so reads must
/// fail as corruption (exit 2). The store's own index locates them, so
/// a store already shredded elsewhere can be shredded again.
fn shred_store_block(path: &str, i: usize) {
    let mut bytes = fs::read(path).unwrap();
    let index = eri_store::StoreReader::open(Path::new(path)).unwrap().index().clone();
    let block = index.blocks[i];
    let stripe = index.stripes.iter().find(|s| i < s.first + s.members).unwrap();
    let container = (block.offset + 8..block.offset + block.len).step_by(7);
    for p in container.chain((stripe.record..stripe.record + stripe.record_len).step_by(7)) {
        bytes[p as usize] ^= 0x55;
    }
    fs::write(path, bytes).unwrap();
}

/// A copy at `dest` of the golden fixture `name`: nothing writes
/// containers with parity or streams any more.
fn copy_golden(name: &str, dest: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    fs::copy(golden, dest).unwrap();
}

/// `(container length, offset)` of a stream's first segment, found by
/// the stream module's walker.
fn first_segment(bytes: &[u8]) -> (usize, usize) {
    let segment = pastri::stream::Frames::new(bytes).unwrap().next().unwrap().unwrap();
    (segment.container.len(), segment.at as usize)
}

#[test]
fn exit_codes_follow_the_documented_contract() {
    let _serial = one_at_a_time();
    let dir = tmpdir("exit-codes");
    let raw = p(&dir, "data.f64");
    let container = p(&dir, "clean.pastri");
    let stream = p(&dir, "clean.pstrs");
    let missing = p(&dir, "no-such-file");

    // Fixtures: a model dataset, and a clean container and a clean
    // stream copied from the golden fixtures.
    assert_eq!(
        exit_code(&sv(&[
            "gen", &raw, "--config", "dddd", "--blocks", "8", "--model"
        ])),
        0
    );
    copy_golden("v3_container.pastri", &container);
    copy_golden("v3_stream.pstrs", &stream);

    // Corrupt container: flip a byte inside block 2's payload, so both
    // the strict decoder and verify see a checksum mismatch.
    let damaged_container = p(&dir, "damaged.pastri");
    let container_bytes = fs::read(&container).unwrap();
    let mut bytes = container_bytes.clone();
    bytes[100] ^= 0x40;
    fs::write(&damaged_container, &bytes).unwrap();

    // Header-damaged container: flip a bit of the stored error bound, so
    // only the header CRC can tell.
    let header_damaged = p(&dir, "header-damaged.pastri");
    let mut bytes = container_bytes.clone();
    bytes[13] ^= 0x10;
    fs::write(&header_damaged, &bytes).unwrap();
    // The golden v1 container with bytes after it, and the golden v3
    // one with a bit flipped inside a block's frame: `inspect` reads
    // them as `decompress` does, so it refuses both.
    let trailing_container = p(&dir, "trailing.pastri");
    copy_golden("v1_container.pastri", &trailing_container);
    let mut bytes = fs::read(&trailing_container).unwrap();
    bytes.extend_from_slice(b"junk");
    fs::write(&trailing_container, &bytes).unwrap();
    let err = pastri_cli::run(&sv(&["inspect", &trailing_container]), &mut Vec::new())
        .expect_err("a container with trailing bytes does not inspect");
    assert!(err.message.contains("trailing bytes after container"), "{}", err.message);
    let frame_damaged = p(&dir, "frame-damaged.pastri");
    let mut bytes = container_bytes.clone();
    bytes[60] ^= 0x04;
    fs::write(&frame_damaged, &bytes).unwrap();
    // A cut container: its first 300 bytes.
    let truncated_container = p(&dir, "truncated.pastri");
    fs::write(&truncated_container, &container_bytes[..300]).unwrap();

    // Corrupt stream: flip deep inside the first segment's container,
    // plus a truncated copy.
    let damaged_stream = p(&dir, "damaged.pstrs");
    let stream_bytes = fs::read(&stream).unwrap();
    let (seg_len, seg_start) = first_segment(&stream_bytes);
    let mut bytes = stream_bytes.clone();
    bytes[seg_start + seg_len / 2] ^= 0x10;
    fs::write(&damaged_stream, &bytes).unwrap();
    let truncated_stream = p(&dir, "truncated.pstrs");
    fs::write(&truncated_stream, &stream_bytes[..stream_bytes.len() - 12]).unwrap();
    // A stream whose header names an unknown version: damage in a
    // recognized artifact, so every integrity command exits 2.
    let bad_version_stream = p(&dir, "bad-version.pstrs");
    fs::write(&bad_version_stream, b"PSTRS\x09\x00").unwrap();
    // The retired version-2 stream header: refused as a *stream* version.
    let v2_stream = p(&dir, "v2-header.pstrs");
    fs::write(&v2_stream, b"PSTRS\x02\x00").unwrap();
    let mut msg = Vec::new();
    let err = pastri_cli::run(&sv(&["decompress", &v2_stream, &p(&dir, "v2.f64")]), &mut msg);
    let err = err.expect_err("a version-2 stream header does not decode");
    assert!(err.message.contains("unsupported stream version 2"), "{}", err.message);
    // A cut container is truncated input, not a truncated stream.
    let err = pastri_cli::run(&sv(&["verify", &truncated_container]), &mut msg)
        .expect_err("a cut container does not verify");
    assert!(err.message.contains("truncated"), "{}", err.message);
    assert!(!err.message.contains("stream"), "{}", err.message);

    // Damage inside the third segment's container: `decompress` names
    // the segment and where its container starts in the file, as
    // `verify` does.
    let later_damaged_stream = p(&dir, "later-damaged.pstrs");
    let third = pastri::stream::Frames::new(&stream_bytes[..]).unwrap().nth(2).unwrap().unwrap();
    let mut bytes = stream_bytes.clone();
    bytes[third.at as usize + third.container.len() / 2] ^= 0x10;
    fs::write(&later_damaged_stream, &bytes).unwrap();
    let where_ = format!("segment 2 (container at stream offset {}): ", third.at);
    let decompress_err =
        pastri_cli::run(&sv(&["decompress", &later_damaged_stream, &p(&dir, "later.f64")]), &mut msg)
            .expect_err("a damaged segment does not decode");
    let verify_err = pastri_cli::run(&sv(&["verify", &later_damaged_stream]), &mut msg)
        .expect_err("a damaged segment does not verify");
    assert!(decompress_err.message.contains(&where_), "{}", decompress_err.message);
    assert_eq!(decompress_err.message, verify_err.message);

    // Not-a-PaSTRI-artifact input (unknown magic) and a raw file whose
    // length is not a multiple of 8 (invalid f64 input).
    let junk = p(&dir, "junk.bin");
    fs::write(&junk, b"something else entirely").unwrap();
    // Decoded as a container (it carries no other magic), junk is
    // refused as one, not as a stream.
    let err = pastri_cli::run(&sv(&["decompress", &junk, &p(&dir, "junk.f64")]), &mut msg);
    let err = err.expect_err("junk does not decode");
    assert_eq!(err.code, 1);
    assert!(err.message.contains("not a PaSTRI container (bad magic)"), "{}", err.message);
    let odd_raw = p(&dir, "odd.f64");
    fs::write(&odd_raw, [0u8; 9]).unwrap();
    // Whole f64s, but not a whole number of `dddd` blocks.
    let ragged_raw = p(&dir, "ragged.f64");
    fs::write(&ragged_raw, &fs::read(&raw).unwrap()[..8 * 100]).unwrap();

    // Soak fixtures: output locations, plus a path whose parent is a
    // regular file so the store directory cannot be created (I/O error).
    let soak_dir = p(&dir, "soak");
    let soak_bench = p(&dir, "BENCH_soak.json");
    let blocker = p(&dir, "blocker");
    fs::write(&blocker, b"a file, not a directory").unwrap();
    let soak_bad_dir = format!("{blocker}/sub");
    let soak_args = [
        "--seed", "3", "--ops", "12", "--stores", "2", "--scale", "6",
    ];

    let out_f64 = p(&dir, "out.f64");

    // Cache-server fixtures: a clean store and a copy with one block
    // shredded beyond the parity budget.
    let clean_store = p(&dir, "clean.eristore");
    let shredded_store = p(&dir, "shredded.eristore");
    build_server_store(&clean_store, 12);
    build_server_store(&shredded_store, 12);
    shred_store_block(&shredded_store, 3);
    // A store whose header CRC fails: it cannot be opened at all.
    let header_damaged_store = p(&dir, "header-damaged.eristore");
    let mut bytes = fs::read(&clean_store).unwrap();
    bytes[10] ^= 0x01;
    fs::write(&header_damaged_store, &bytes).unwrap();

    struct Case {
        label: &'static str,
        argv: Vec<String>,
        want: i32,
    }
    let soak_case = |extra: &[&str]| {
        let mut v = sv(&["soak", &soak_dir]);
        v.extend(sv(&soak_args));
        v.extend(sv(&["--bench-out", &soak_bench]));
        v.extend(sv(extra));
        v
    };
    // Removed soak flags: a script passing one must fail loudly, not
    // run a different storm.
    let soak_seconds = sv(&["soak", &soak_dir, "--seconds", "5"]);
    let soak_max_batch = sv(&["soak", &soak_dir, "--transport", "--max-batch", "2"]);
    let salvage = sv(&["salvage", &stream, &p(&dir, "out.pstrs")]);
    let cases = vec![
        // compress (always a block store, whatever the name): clean /
        // missing input / invalid raw input.
        Case {
            label: "compress clean to a .pastri name",
            argv: sv(&["compress", &raw, &p(&dir, "c2.pastri"), "--config", "dddd"]),
            want: 0,
        },
        Case {
            label: "compress missing input",
            argv: sv(&["compress", &missing, &p(&dir, "c3.pastri"), "--config", "dddd"]),
            want: 1,
        },
        Case {
            label: "compress odd-length raw",
            argv: sv(&["compress", &odd_raw, &p(&dir, "c4.pastri"), "--config", "dddd"]),
            want: 1,
        },
        // compress to a .eristore: clean / ragged input / its
        // durability flags.
        Case {
            label: "compress store clean",
            argv: sv(&["compress", &raw, &p(&dir, "c5.eristore"), "--config", "dddd"]),
            want: 0,
        },
        Case {
            label: "compress store ragged input",
            argv: sv(&["compress", &ragged_raw, &p(&dir, "c6.eristore"), "--config", "dddd"]),
            want: 1,
        },
        Case {
            label: "compress store with --resume and nothing to resume",
            argv: sv(&["compress", &raw, &p(&dir, "c8.eristore"), "--config", "dddd", "--resume"]),
            want: 0,
        },
        Case {
            label: "compress store with --checkpoint-every",
            argv: sv(&[
                "compress", &raw, &p(&dir, "c10.eristore"), "--config", "dddd", "--checkpoint-every", "2",
            ]),
            want: 0,
        },
        // Containers and streams are no longer written: `--metric`,
        // `--tree` and `--stream` are unknown flags.
        Case {
            label: "compress with unknown flags --metric/--tree",
            argv: sv(&[
                "compress", &raw, &p(&dir, "c9.eristore"), "--config", "dddd", "--metric", "AR",
                "--tree", "3",
            ]),
            want: 1,
        },
        Case {
            label: "compress with unknown flag --stream",
            argv: sv(&["compress", "--stream", &raw, &p(&dir, "c7.pstrs"), "--config", "dddd"]),
            want: 1,
        },
        // decompress: clean / missing / damage in a recognized artifact.
        Case {
            label: "decompress clean",
            argv: sv(&["decompress", &container, &out_f64]),
            want: 0,
        },
        Case {
            label: "decompress missing input",
            argv: sv(&["decompress", &missing, &out_f64]),
            want: 1,
        },
        Case {
            label: "decompress damaged container",
            argv: sv(&["decompress", &damaged_container, &out_f64]),
            want: 2,
        },
        Case {
            label: "decompress damaged stream",
            argv: sv(&["decompress", &damaged_stream, &out_f64]),
            want: 2,
        },
        Case {
            label: "decompress stream damaged in a later segment",
            argv: sv(&["decompress", &later_damaged_stream, &out_f64]),
            want: 2,
        },
        Case {
            label: "decompress truncated stream",
            argv: sv(&["decompress", &truncated_stream, &out_f64]),
            want: 2,
        },
        Case {
            label: "decompress stream with a version-2 header",
            argv: sv(&["decompress", &v2_stream, &out_f64]),
            want: 2,
        },
        Case {
            label: "decompress clean store",
            argv: sv(&["decompress", &clean_store, &out_f64]),
            want: 0,
        },
        Case {
            label: "decompress store damaged beyond parity",
            argv: sv(&["decompress", &shredded_store, &out_f64]),
            want: 2,
        },
        // verify: clean / missing / unknown magic / damaged.
        Case {
            label: "verify clean container",
            argv: sv(&["verify", &container]),
            want: 0,
        },
        Case {
            label: "verify clean stream",
            argv: sv(&["verify", &stream]),
            want: 0,
        },
        Case {
            label: "verify missing file",
            argv: sv(&["verify", &missing]),
            want: 1,
        },
        Case {
            label: "verify unknown magic",
            argv: sv(&["verify", &junk]),
            want: 1,
        },
        Case {
            label: "verify damaged container",
            argv: sv(&["verify", &damaged_container]),
            want: 2,
        },
        Case {
            label: "verify truncated container",
            argv: sv(&["verify", &truncated_container]),
            want: 2,
        },
        Case {
            label: "verify damaged stream",
            argv: sv(&["verify", &damaged_stream]),
            want: 2,
        },
        Case {
            label: "verify truncated stream",
            argv: sv(&["verify", &truncated_stream]),
            want: 2,
        },
        Case {
            label: "verify stream bad version",
            argv: sv(&["verify", &bad_version_stream]),
            want: 2,
        },
        // inspect: clean / header damage / not a container / a stream /
        // a store.
        Case {
            label: "inspect clean container",
            argv: sv(&["inspect", &container]),
            want: 0,
        },
        Case {
            label: "inspect header-damaged container",
            argv: sv(&["inspect", &header_damaged]),
            want: 2,
        },
        Case {
            label: "inspect container with trailing bytes",
            argv: sv(&["inspect", &trailing_container]),
            want: 2,
        },
        Case {
            label: "inspect frame-damaged container",
            argv: sv(&["inspect", &frame_damaged]),
            want: 2,
        },
        Case {
            label: "inspect unknown magic",
            argv: sv(&["inspect", &junk]),
            want: 1,
        },
        Case {
            label: "inspect stream",
            argv: sv(&["inspect", &stream]),
            want: 1,
        },
        Case {
            label: "inspect clean store",
            argv: sv(&["inspect", &clean_store]),
            want: 0,
        },
        Case {
            label: "inspect header-damaged store",
            argv: sv(&["inspect", &header_damaged_store]),
            want: 2,
        },
        // salvage is gone: an unknown subcommand.
        Case {
            label: "salvage is an unknown subcommand",
            argv: salvage.clone(),
            want: 1,
        },
        // scrub takes block stores only: containers and streams, clean
        // or damaged, are read-only (exit 1).
        Case {
            label: "scrub clean container",
            argv: sv(&["scrub", &container]),
            want: 1,
        },
        Case {
            label: "scrub --repair damaged container",
            argv: sv(&["scrub", &damaged_container, "--repair"]),
            want: 1,
        },
        Case {
            label: "scrub missing file",
            argv: sv(&["scrub", &missing]),
            want: 1,
        },
        Case {
            label: "scrub clean stream",
            argv: sv(&["scrub", &stream]),
            want: 1,
        },
        Case {
            label: "scrub damaged stream detect-only",
            argv: sv(&["scrub", &damaged_stream]),
            want: 1,
        },
        Case {
            label: "scrub stream bad version",
            argv: sv(&["scrub", &bad_version_stream]),
            want: 1,
        },
        // soak: clean storm / un-creatable store dir / impossible gate.
        Case {
            label: "soak clean storm",
            argv: soak_case(&[]),
            want: 0,
        },
        Case {
            label: "soak dir is under a file",
            argv: {
                let mut v = sv(&["soak", &soak_bad_dir]);
                v.extend(sv(&soak_args));
                v.extend(sv(&["--bench-out", &soak_bench]));
                v
            },
            want: 1,
        },
        Case {
            label: "soak impossible SLO gate",
            argv: soak_case(&["--slo-read-p99-us", "0"]),
            want: 2,
        },
        Case {
            label: "soak with removed flag --seconds",
            argv: soak_seconds.clone(),
            want: 1,
        },
        Case {
            label: "soak --transport with removed flag --max-batch",
            argv: soak_max_batch.clone(),
            want: 1,
        },
        // serve: clean / missing store / out-of-range request /
        // beyond-parity-budget block in a mounted shard.
        Case {
            label: "serve clean store",
            argv: sv(&["serve", &clean_store, "--blocks", "0-11"]),
            want: 0,
        },
        Case {
            label: "serve missing store",
            argv: sv(&["serve", &missing]),
            want: 1,
        },
        Case {
            label: "serve out-of-range block",
            argv: sv(&["serve", &clean_store, "--blocks", "99"]),
            want: 1,
        },
        Case {
            label: "serve huge block range",
            argv: sv(&["serve", &clean_store, "--blocks", "0-4000000000"]),
            want: 1,
        },
        Case {
            label: "serve shredded block",
            argv: sv(&["serve", &shredded_store]),
            want: 2,
        },
        // verify / scrub on a store: clean / shredded beyond the parity
        // budget, detect-only and with --repair (which quarantines).
        Case {
            label: "verify clean store",
            argv: sv(&["verify", &clean_store]),
            want: 0,
        },
        Case {
            label: "verify shredded store",
            argv: sv(&["verify", &shredded_store]),
            want: 2,
        },
        Case {
            label: "scrub clean store",
            argv: sv(&["scrub", &clean_store]),
            want: 0,
        },
        Case {
            label: "scrub shredded store detect-only",
            argv: sv(&["scrub", &shredded_store]),
            want: 2,
        },
        Case {
            label: "scrub --repair shredded store",
            argv: sv(&["scrub", &shredded_store, "--repair"]),
            want: 2,
        },
        // usage errors.
        Case {
            label: "unknown subcommand",
            argv: sv(&["frobnicate"]),
            want: 1,
        },
        Case {
            label: "verify with no path",
            argv: sv(&["verify"]),
            want: 1,
        },
        Case {
            label: "serve with a removed flag",
            argv: sv(&["serve", &clean_store, "--shards", "4"]),
            want: 1,
        },
        Case {
            label: "serve with a misspelled flag",
            argv: sv(&["serve", &clean_store, "--cache-mv", "64"]),
            want: 1,
        },
        Case {
            label: "value flag with no value",
            argv: sv(&["gen", &p(&dir, "g.f64"), "--config", "dddd", "--model", "--blocks"]),
            want: 1,
        },
    ];

    let mut failures = Vec::new();
    for case in &cases {
        let got = exit_code(&case.argv);
        if got != case.want {
            failures.push(format!(
                "{}: expected exit {}, got {} (argv: {:?})",
                case.label, case.want, got, case.argv
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "exit-code contract violations:\n{}",
        failures.join("\n")
    );
    for argv in [&soak_seconds, &soak_max_batch] {
        let err = pastri_cli::run(argv, &mut Vec::new()).unwrap_err();
        assert!(err.message.contains("unknown flag"), "{argv:?}: {}", err.message);
    }
    let err = pastri_cli::run(&salvage, &mut Vec::new()).unwrap_err();
    assert!(err.message.contains("unknown subcommand `salvage`"), "{}", err.message);
    assert_eq!(fs::read(&damaged_container).unwrap()[100], container_bytes[100] ^ 0x40);
    assert!(
        Path::new(&format!("{shredded_store}.quarantine")).exists(),
        "scrub --repair must quarantine a store it cannot fully heal"
    );
    let journals: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".journal"))
        .collect();
    assert!(journals.is_empty(), "no `*.journal` file is ever created: {journals:?}");
}

/// Remote-serving rows of the exit-code contract: `serve --listen` and
/// `fetch` (DESIGN §13). Servers run the real CLI entry point on
/// background threads, bounded by `--serve-conns` so they exit 0 once
/// the table has consumed their connections.
#[test]
fn transport_exit_codes_follow_the_documented_contract() {
    let _serial = one_at_a_time();
    let dir = tmpdir("transport-exit-codes");
    let store = p(&dir, "wire.eristore");
    build_server_store(&store, 12);
    let fetched = p(&dir, "fetched.f64");

    // `serve --listen` clean exit 0: serves exactly one connection.
    let sock = p(&dir, "clean.sock");
    let serve_argv = sv(&[
        "serve", &store, "--listen", &format!("unix:{sock}"), "--serve-conns", "1",
    ]);
    let server = std::thread::spawn(move || exit_code(&serve_argv));
    wait_for_path(&sock);

    // `fetch` clean exit 0 (one connection, all blocks, written out).
    let fetch_clean = exit_code(&sv(&[
        "fetch", &format!("unix:{sock}"), "--out", &fetched, "--stats",
    ]));
    assert_eq!(fetch_clean, 0, "fetch against a live server is exit 0");
    assert_eq!(
        fs::read(&fetched).unwrap().len(),
        12 * 4 * 16 * 8,
        "every block fetched"
    );
    assert_eq!(server.join().unwrap(), 0, "bounded serve --listen is exit 0");

    // Connection refused: nobody serves this path. Exit 1, not a hang.
    let refused = exit_code(&sv(&[
        "fetch", &format!("unix:{}", p(&dir, "nobody.sock")),
        "--retries", "1", "--deadline-ms", "500",
    ]));
    assert_eq!(refused, 1, "unreachable endpoint is exit 1");

    // Deadline exceeded: a listener that never speaks. The whole-call
    // deadline must cut it off with exit 1.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mute_addr = mute.local_addr().unwrap();
    let deadline = exit_code(&sv(&[
        "fetch", &format!("tcp:{mute_addr}"),
        "--deadline-ms", "400", "--attempt-ms", "100", "--retries", "100",
    ]));
    assert_eq!(deadline, 1, "a blown deadline is exit 1");
    drop(mute);

    // Corrupt frames beyond the retry budget: every connection through
    // the fault proxy flips a bit past the Hello frame, so each attempt
    // dies on a CRC mismatch. --retries 2 → exactly 3 connections, then
    // exit 2 (the bytes were damaged, not merely unavailable).
    // (Library-layer server here: the table needs its ephemeral TCP
    // port before `run` returns, which the CLI only prints at exit.)
    let store2 = store.clone();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let cfg = eri_server::ServerConfig::default();
        let handle = eri_server::ServerHandle::open(&[&store2], &cfg).unwrap();
        let srv = eri_server::TransportServer::bind(
            &eri_server::Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
            std::sync::Arc::new(handle),
        )
        .unwrap();
        let eri_server::Endpoint::Tcp(addr) = srv.local_endpoint() else { unreachable!() };
        addr_tx.send(addr).unwrap();
        srv.run(Some(3)).unwrap()
    });
    let upstream = addr_rx.recv().unwrap();
    // Each attempt's flip lands between the end of the 44-byte Hello
    // and the end of the 4-block response, wherever compression puts it.
    let exchange_end = 44 + read_response_frame_len(&store, 0..4);
    let proxy = faults::FaultyProxy::start(
        &upstream,
        0xC11,
        faults::ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![faults::WireFault::Corrupt],
            max_faults: u32::MAX,
            offset_base: 60,
            offset_window: exchange_end - 60,
            ..faults::ProxyFaultConfig::default()
        },
    )
    .unwrap();
    let corrupt = exit_code(&sv(&[
        "fetch", &format!("tcp:{}", proxy.addr()),
        "--retries", "2", "--deadline-ms", "10000", "--blocks", "0-3",
    ]));
    assert_eq!(corrupt, 2, "corrupt frames past the retry budget are exit 2");
    assert_eq!(server.join().unwrap(), 3, "all three attempts reached the server");
    let tallies = proxy.stop();
    assert!(tallies.corrupts >= 3, "{tallies:?}");

    // Shed past the retry budget: a server whose injector refuses every
    // read with a structured `Overloaded` frame. The service was
    // *unavailable*, not corrupt — exit 1, distinct from the frame-CRC
    // exit 2 above. One connection serves every attempt: an Overloaded
    // reply keeps the stream in sync, so the client must not reconnect.
    let store3 = store.clone();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let cfg = eri_server::ServerConfig::default();
        let handle = eri_server::ServerHandle::open(&[&store3], &cfg).unwrap();
        let inject = std::sync::Arc::new(|_key: u64, _attempt: u32| eri_server::InjectedLoad {
            shed: true,
            retry_after: std::time::Duration::from_millis(1),
            delay: std::time::Duration::ZERO,
        });
        let srv = eri_server::TransportServer::bind_with(
            &eri_server::Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
            std::sync::Arc::new(handle),
            Some(inject),
        )
        .unwrap();
        let eri_server::Endpoint::Tcp(addr) = srv.local_endpoint() else { unreachable!() };
        addr_tx.send(addr).unwrap();
        let conns = srv.run(Some(1)).unwrap();
        (conns, srv.admission().stats())
    });
    let shed_addr = addr_rx.recv().unwrap();
    let shed = exit_code(&sv(&[
        "fetch", &format!("tcp:{shed_addr}"),
        "--retries", "2", "--deadline-ms", "10000", "--blocks", "0-3",
    ]));
    assert_eq!(shed, 1, "sheds past the retry budget are exit 1 (availability)");
    let (conns, astats) = server.join().unwrap();
    assert_eq!(conns, 1, "overloaded replies keep the connection alive");
    assert_eq!(astats.shed, 3, "every attempt shed loudly (retries 2 = 3 attempts)");

    // Drain refusal: a draining server refuses new requests with a
    // structured `Draining` status — again availability, exit 1.
    let store4 = store.clone();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let cfg = eri_server::ServerConfig::default();
        let handle = eri_server::ServerHandle::open(&[&store4], &cfg).unwrap();
        let srv = eri_server::TransportServer::bind(
            &eri_server::Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
            std::sync::Arc::new(handle),
        )
        .unwrap();
        let eri_server::Endpoint::Tcp(addr) = srv.local_endpoint() else { unreachable!() };
        // Begin draining before any client arrives: connections are
        // still accepted (finishing admitted work elsewhere) but every
        // new read is refused.
        srv.stop_handle().begin_drain();
        addr_tx.send(addr).unwrap();
        let conns = srv.run(Some(1)).unwrap();
        (conns, srv.admission().stats())
    });
    let drain_addr = addr_rx.recv().unwrap();
    let drained = exit_code(&sv(&[
        "fetch", &format!("tcp:{drain_addr}"),
        "--retries", "1", "--deadline-ms", "10000", "--blocks", "0-3",
    ]));
    assert_eq!(drained, 1, "drain refusals are exit 1 (availability)");
    let (_, astats) = server.join().unwrap();
    assert_eq!(astats.refused_draining, 2, "both attempts refused with Draining");
    assert_eq!(astats.admitted, 0, "nothing admitted while draining");

    // A wrong reply to the telemetry scrape: `fetch --stats` must
    // surface the protocol fault as exit 1, not swallow it. The mock
    // server serves reads correctly but answers `TelemetryRequest`
    // with a `Hello`.
    let (mock_addr, server) = mock_server(mock_block);
    let wrong_scrape = exit_code(&sv(&[
        "fetch", &format!("tcp:{mock_addr}"), "--stats", "--deadline-ms", "10000",
    ]));
    assert_eq!(wrong_scrape, 1, "a protocol fault in the telemetry scrape is exit 1");
    assert_eq!(server.join().unwrap(), 1, "the scrape was sent once, not retried");

    // A damaged block inside an intact PTRF frame: the PTRF CRC holds,
    // but block 1's own payload CRC does not, so the client's decode
    // refuses it — corruption, exit 2, and not a retried frame error.
    let (mock_addr, server) = mock_server(|id| {
        let mut c = mock_block(id);
        if id == 1 {
            let last = c.len() - 1;
            c[last] ^= 0x20;
        }
        c
    });
    let damaged = exit_code(&sv(&[
        "fetch", &format!("tcp:{mock_addr}"), "--retries", "0", "--deadline-ms", "10000",
    ]));
    assert_eq!(damaged, 2, "a damaged block in a CRC-valid PTRF frame is exit 2");
    assert_eq!(server.join().unwrap(), 0, "no scrape without --stats");
}

/// Mock server block `id`: the frame of 4 copies of `id`, as a store
/// of 1×4 blocks at EB 1e-10 holds it.
fn mock_block(id: u64) -> Vec<u8> {
    pastri::Compressor::new(pastri::BlockGeometry::new(1, 4), 1e-10).compress_block(&[id as f64; 4])
}

/// A one-connection PTRF server announcing two 1×4 blocks at EB 1e-10,
/// answering each read with `block(id)` per id and each telemetry
/// scrape with a `Hello` (a protocol fault). Joins to the number of
/// scrapes it was sent.
fn mock_server(
    block: impl Fn(u64) -> Vec<u8> + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<u32>) {
    use eri_server::protocol::{self, Hello, Message, ReadResponse, WireBlock};
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = eri_server::transport::Conn::Tcp(stream);
        let hello = Hello {
            version: protocol::PROTO_VERSION,
            num_blocks: 2,
            num_subblocks: 1,
            subblock_size: 4,
            error_bound: 1e-10,
        };
        protocol::write_frame(&mut conn, &Message::Hello(hello)).unwrap();
        conn.flush().unwrap();
        let mut scrapes = 0u32;
        while let Ok(msg) = protocol::read_frame(&mut conn) {
            let reply = match msg {
                Message::ReadRequest(rq) => {
                    let blocks = rq.ids.iter().map(|&id| WireBlock::Frame(block(id)));
                    Message::ReadResponse(ReadResponse {
                        request_id: rq.request_id,
                        blocks: blocks.collect(),
                    })
                }
                Message::TelemetryRequest => {
                    scrapes += 1;
                    Message::Hello(hello)
                }
                other => panic!("mock server got {other:?}"),
            };
            protocol::write_frame(&mut conn, &reply).unwrap();
            conn.flush().unwrap();
        }
        scrapes
    });
    (addr, server)
}

/// `fetch --stats` prints the server's books from a live scrape. The
/// server is the real `pastri` binary in a child process, so its
/// telemetry recorder holds only this exchange: one 12-block read, all
/// misses, nothing shed.
#[test]
fn fetch_stats_reports_the_server_books() {
    use std::io::BufRead as _;
    let _serial = one_at_a_time();
    let dir = tmpdir("fetch-stats");
    let store = p(&dir, "books.eristore");
    build_server_store(&store, 12);
    let sock = p(&dir, "books.sock");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pastri"))
        .args(["serve", &store, "--listen", &format!("unix:{sock}"), "--serve-conns", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The first line is printed once the socket is bound.
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with("serve: listening on"), "{line:?}");

    let mut out = Vec::new();
    let fetched = pastri_cli::run(&sv(&["fetch", &format!("unix:{sock}"), "--stats"]), &mut out);
    if fetched.is_err() {
        // The server is still waiting for its one connection.
        let _ = child.kill();
    }
    fetched.unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    assert!(
        lines.contains(
            &"server: 1 requests, 12 blocks, 12 store reads, 0 transient retries, \
              0 repaired, cache 0/12 hits"
        ),
        "{text}"
    );
    assert!(lines.contains(&"server overload: 1 admitted, 0 shed, 0 refused draining"), "{text}");
    assert!(child.wait().unwrap().success(), "bounded serve --listen is exit 0");
    let _ = fs::remove_dir_all(&dir);
}

/// Polls (briefly) until a serve thread has bound its unix socket.
fn wait_for_path(path: &str) {
    for _ in 0..200 {
        if Path::new(path).exists() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server never bound {path}");
}

/// Repeated quarantines of the same artifact must never clobber earlier
/// evidence: the CLI picks `<file>.quarantine`, then `.quarantine.1`,
/// `.quarantine.2`, … (satellite for `durable::fresh_quarantine_path`).
#[test]
fn repeated_scrub_quarantines_do_not_clobber() {
    let _serial = one_at_a_time();
    let dir = tmpdir("quarantine");
    let store = p(&dir, "q.eristore");
    build_server_store(&store, 12);

    // Shred block 3 beyond its stripe's two-shard budget, so `scrub
    // --repair` must quarantine the original.
    shred_store_block(&store, 3);
    let first = fs::read(&store).unwrap();
    let err = pastri_cli::run(&sv(&["scrub", &store, "--repair"]), &mut Vec::new()).unwrap_err();
    assert_eq!(err.code, 2);
    let q0 = format!("{store}.quarantine");
    assert_eq!(fs::read(&q0).unwrap(), first, "first quarantine holds the damage");

    // Shred block 9, in the other stripe: the second quarantine must go
    // to a numbered suffix, leaving the first capture intact.
    shred_store_block(&store, 9);
    let second = fs::read(&store).unwrap();
    let err = pastri_cli::run(&sv(&["scrub", &store, "--repair"]), &mut Vec::new()).unwrap_err();
    assert_eq!(err.code, 2);
    let q1 = format!("{store}.quarantine.1");
    assert_eq!(fs::read(&q0).unwrap(), first, "first capture must survive");
    assert_eq!(fs::read(&q1).unwrap(), second, "second capture gets a numbered suffix");
    assert_ne!(first, second);
}
