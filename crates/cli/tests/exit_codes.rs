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
        w.append_block(&block).unwrap();
    }
    w.finish().unwrap();
}

/// Shreds stored block `i`'s whole container span — beyond the parity
/// budget by construction, so reads must fail as corruption (exit 2).
fn shred_store_block(path: &str, i: usize) {
    let mut bytes = fs::read(path).unwrap();
    let (_, index) = eri_store::committed_index(&bytes[..]).unwrap();
    let (off, len) = (index[i].0 as usize, index[i].1 as usize);
    for p in (off + 8..off + len).step_by(7) {
        bytes[p] ^= 0x55;
    }
    fs::write(path, bytes).unwrap();
}

/// `(container length, offset)` of a stream's first segment, found by
/// the stream module's walker.
fn first_segment(bytes: &[u8]) -> (usize, usize) {
    pastri::stream::Frames::new(bytes)
        .unwrap()
        .find_map(|frame| match frame.unwrap() {
            pastri::stream::Frame::Segment { at, container } => Some((container.len(), at as usize)),
            pastri::stream::Frame::Commit { .. } => None,
        })
        .unwrap()
}

#[test]
fn exit_codes_follow_the_documented_contract() {
    let _serial = one_at_a_time();
    let dir = tmpdir("exit-codes");
    let raw = p(&dir, "data.f64");
    let container = p(&dir, "clean.pastri");
    let stream = p(&dir, "clean.pstrs");
    let missing = p(&dir, "no-such-file");

    // Fixtures: a model dataset, a clean container, a clean stream.
    assert_eq!(
        exit_code(&sv(&[
            "gen", &raw, "--config", "dddd", "--blocks", "8", "--model"
        ])),
        0
    );
    assert_eq!(
        exit_code(&sv(&["compress", &raw, &container, "--config", "dddd"])),
        0
    );
    assert_eq!(
        exit_code(&sv(&[
            "compress",
            &raw,
            &stream,
            "--config",
            "dddd",
            "--stream",
            "--segment-blocks",
            "2",
        ])),
        0
    );

    // Corrupt container: flip a byte inside the first block's payload
    // (located via the lossy decoder's per-block offsets) so both the
    // strict decoder and verify see a checksum mismatch.
    let damaged_container = p(&dir, "damaged.pastri");
    let container_bytes = fs::read(&container).unwrap();
    let decoded = pastri::decompress_lossy(&container_bytes).unwrap();
    let mut bytes = container_bytes.clone();
    bytes[decoded.outcomes[0].offset as usize + 8] ^= 0x40;
    fs::write(&damaged_container, &bytes).unwrap();

    // Header-damaged container: flip a bit of the stored error bound, so
    // only the header CRC can tell.
    let header_damaged = p(&dir, "header-damaged.pastri");
    let mut bytes = container_bytes.clone();
    bytes[13] ^= 0x10;
    fs::write(&header_damaged, &bytes).unwrap();

    // Corrupt stream: flip deep inside the first segment's container,
    // plus a truncated copy whose tail salvage must drop.
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

    // Not-a-PaSTRI-artifact input (unknown magic) and a raw file whose
    // length is not a multiple of 8 (invalid f64 input).
    let junk = p(&dir, "junk.bin");
    fs::write(&junk, b"something else entirely").unwrap();
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
    let out_pstrs = p(&dir, "out.pstrs");

    // Cache-server fixtures: a clean store and a copy with one block
    // shredded beyond the parity budget.
    let clean_store = p(&dir, "clean.eristore");
    let shredded_store = p(&dir, "shredded.eristore");
    build_server_store(&clean_store, 12);
    build_server_store(&shredded_store, 12);
    shred_store_block(&shredded_store, 3);

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
    let cases = vec![
        // compress: clean / missing input / invalid raw input.
        Case {
            label: "compress clean",
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
        // compress to a block store: clean / ragged input / a
        // container-only flag.
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
            label: "compress store with --stream",
            argv: sv(&["compress", &raw, &p(&dir, "c7.eristore"), "--config", "dddd", "--stream"]),
            want: 1,
        },
        Case {
            label: "compress store with --resume",
            argv: sv(&["compress", &raw, &p(&dir, "c8.eristore"), "--config", "dddd", "--resume"]),
            want: 1,
        },
        Case {
            label: "compress store with --segment-blocks",
            argv: sv(&[
                "compress", &raw, &p(&dir, "c9.eristore"), "--config", "dddd", "--segment-blocks", "2",
            ]),
            want: 1,
        },
        Case {
            label: "compress store with --checkpoint-every",
            argv: sv(&[
                "compress", &raw, &p(&dir, "c10.eristore"), "--config", "dddd", "--checkpoint-every", "2",
            ]),
            want: 1,
        },
        // A switch never swallows the positional after it.
        Case {
            label: "compress --stream before the positionals",
            argv: sv(&["compress", "--stream", &raw, &p(&dir, "c11.pstrs"), "--config", "dddd"]),
            want: 0,
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
            label: "verify damaged stream",
            argv: sv(&["verify", &damaged_stream]),
            want: 2,
        },
        Case {
            label: "verify stream bad version",
            argv: sv(&["verify", &bad_version_stream]),
            want: 2,
        },
        // inspect: clean / header damage / not a container / a stream.
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
            label: "inspect unknown magic",
            argv: sv(&["inspect", &junk]),
            want: 1,
        },
        Case {
            label: "inspect stream",
            argv: sv(&["inspect", &stream]),
            want: 1,
        },
        // salvage: clean / missing / lossy (dropped tail).
        Case {
            label: "salvage clean stream",
            argv: sv(&["salvage", &stream, &out_pstrs]),
            want: 0,
        },
        Case {
            label: "salvage missing input",
            argv: sv(&["salvage", &missing, &out_pstrs]),
            want: 1,
        },
        Case {
            label: "salvage truncated stream",
            argv: sv(&["salvage", &truncated_stream, &p(&dir, "cut.pstrs")]),
            want: 2,
        },
        Case {
            label: "salvage stream bad version",
            argv: sv(&["salvage", &bad_version_stream, &p(&dir, "bv.pstrs")]),
            want: 2,
        },
        Case {
            label: "salvage container",
            argv: sv(&["salvage", &container, &p(&dir, "not-a-stream.pstrs")]),
            want: 1,
        },
        // scrub: clean / missing / damage without --repair.
        Case {
            label: "scrub clean container",
            argv: sv(&["scrub", &container]),
            want: 0,
        },
        Case {
            label: "scrub missing file",
            argv: sv(&["scrub", &missing]),
            want: 1,
        },
        Case {
            label: "scrub damaged stream detect-only",
            argv: sv(&["scrub", &damaged_stream]),
            want: 2,
        },
        Case {
            label: "scrub stream bad version",
            argv: sv(&["scrub", &bad_version_stream]),
            want: 2,
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
    let proxy = faults::FaultyProxy::start(
        &upstream,
        0xC11,
        faults::ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![faults::WireFault::Corrupt],
            max_faults: u32::MAX,
            offset_base: 60,
            offset_window: 800,
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
    use eri_server::protocol::{self, Hello, Message, ReadResponse, WireBlock};
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mock_addr = listener.local_addr().unwrap();
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
                    let blocks = rq.ids.iter().map(|&id| WireBlock::Values(vec![id as f64; 4]));
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
    let wrong_scrape = exit_code(&sv(&[
        "fetch", &format!("tcp:{mock_addr}"), "--stats", "--deadline-ms", "10000",
    ]));
    assert_eq!(wrong_scrape, 1, "a protocol fault in the telemetry scrape is exit 1");
    assert_eq!(server.join().unwrap(), 1, "the scrape was sent once, not retried");
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
    let raw = p(&dir, "q.f64");
    let comp = p(&dir, "q.pastri");
    let mut out = Vec::new();
    pastri_cli::run(
        &sv(&["gen", &raw, "--config", "dddd", "--blocks", "6", "--model"]),
        &mut out,
    )
    .unwrap();
    pastri_cli::run(&sv(&["compress", &raw, &comp, "--config", "dddd"]), &mut out).unwrap();
    let clean = fs::read(&comp).unwrap();

    // Damage three blocks in one parity group — beyond the two-shard
    // repair budget, so `scrub --repair` must quarantine the original.
    let damage = |clean: &[u8], mask: u8| {
        let decoded = pastri::decompress_lossy(clean).unwrap();
        let mut bytes = clean.to_vec();
        for o in decoded.outcomes.iter().take(3) {
            bytes[o.offset as usize + 8] ^= mask;
        }
        bytes
    };

    let first = damage(&clean, 0x40);
    fs::write(&comp, &first).unwrap();
    let err = pastri_cli::run(&sv(&["scrub", &comp, "--repair"]), &mut Vec::new()).unwrap_err();
    assert_eq!(err.code, 2);
    let q0 = format!("{comp}.quarantine");
    assert_eq!(fs::read(&q0).unwrap(), first, "first quarantine holds the damage");

    // Damage again with a different mask: the second quarantine must go
    // to a numbered suffix, leaving the first capture intact.
    let second = damage(&fs::read(&comp).unwrap(), 0x20);
    fs::write(&comp, &second).unwrap();
    let err = pastri_cli::run(&sv(&["scrub", &comp, "--repair"]), &mut Vec::new()).unwrap_err();
    assert_eq!(err.code, 2);
    let q1 = format!("{comp}.quarantine.1");
    assert_eq!(fs::read(&q0).unwrap(), first, "first capture must survive");
    assert_eq!(fs::read(&q1).unwrap(), second, "second capture gets a numbered suffix");
}
