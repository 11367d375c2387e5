//! Transport differential battery: every block served over the wire is
//! byte-identical to an in-process `ServerHandle::read_blocks` and a
//! direct `StoreReader` read — under all five injected transport fault
//! classes (truncated frame, corrupted frame, connection drop,
//! stall-past-deadline, transient reset), over both socket families,
//! with repair-on-read and cache-admission semantics preserved
//! end-to-end and zero data loss.
//!
//! Also home to this PR's regression battery for the serving core:
//! panic recovery (a panicking injected fault must not brick
//! subsequent reads) and server-path transient-retry attribution
//! (the server's `ReadStats` must match what the same reads cost a
//! direct reader under the same seeded fault stream).

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eri_server::{
    BlockErrorKind, ClientConfig, ClientError, Endpoint, RemoteClient, ServerConfig, ServerHandle,
    TransportServer,
};
use durable::ReadAt;
use eri_store::{RetryPolicy, StoreReader};
use faults::proxy::{FaultyProxy, ProxyFaultConfig, WireFault};
use faults::{BitFlipper, FaultConfig, FaultyReader};
use pastri::BlockGeometry;

/// Telemetry is process-global; serialize the tests that assert on its
/// counters (same pattern as the other differential suites).
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

const EB: f64 = 1e-10;
const BLOCKS: usize = 24;

fn geom() -> BlockGeometry {
    BlockGeometry::new(4, 32)
}

fn fixture(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    common::build_store(&path, geom(), EB, BLOCKS, 9100);
    path
}

fn shuffled_ids(n: usize, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).chain(0..n / 2).collect();
    ids.sort_by_key(|&i| durable::retry::splitmix64(seed ^ (i as u64 + 1)));
    ids
}

fn assert_bit_identical(got: &[f64], want: &[f64], id: usize) {
    assert_eq!(got.len(), want.len(), "block {id} length");
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "block {id} value {k}: {a} != {b}");
    }
}

/// Starts a transport server over `paths` on `ep`, serving until its
/// stop handle fires. Returns (resolved endpoint, stop handle, join
/// handle, shared in-process handle).
#[allow(clippy::type_complexity)]
fn start_server(
    paths: &[PathBuf],
    ep: &Endpoint,
    cfg: &ServerConfig,
) -> (
    Endpoint,
    eri_server::StopHandle,
    std::thread::JoinHandle<std::io::Result<u64>>,
    Arc<ServerHandle>,
) {
    let handle = Arc::new(ServerHandle::open(paths, cfg).unwrap());
    let srv = Arc::new(TransportServer::bind(ep, Arc::clone(&handle)).unwrap());
    let local = srv.local_endpoint();
    let stop = srv.stop_handle();
    let jh = srv.spawn(None);
    (local, stop, jh, handle)
}

fn tcp_any() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".into())
}

/// A client config tuned for fault tests: generous overall deadline,
/// short attempts so stalls are cut off quickly, deterministic jitter.
fn fault_client_cfg() -> ClientConfig {
    ClientConfig {
        deadline: Duration::from_secs(30),
        attempt_timeout: Duration::from_millis(400),
        connect_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            jitter_seed: Some(0x7EAC),
        },
        ..ClientConfig::default()
    }
}

#[test]
fn remote_equals_inprocess_equals_direct_over_both_families() {
    let dir = common::tmpdir("transport-clean");
    let path = fixture(&dir, "clean.eristore");
    let sock = dir.join("srv.sock");
    let ids = shuffled_ids(BLOCKS, 0x11FE);

    let direct = StoreReader::open(&path).unwrap();
    let want: Vec<Vec<f64>> = ids.iter().map(|&i| direct.read_block(i).unwrap()).collect();

    for ep in [tcp_any(), Endpoint::Unix(sock.clone())] {
        let (local, stop, jh, handle) =
            start_server(std::slice::from_ref(&path), &ep, &ServerConfig::default());
        let mut client = RemoteClient::connect(&[local], ClientConfig::default()).unwrap();
        assert_eq!(client.num_blocks(), BLOCKS as u64);
        assert_eq!(client.hello().error_bound, EB);

        for (batch_ids, batch_want) in ids.chunks(5).zip(want.chunks(5)) {
            let wire_ids: Vec<u64> = batch_ids.iter().map(|&i| i as u64).collect();
            let remote = client.read_blocks_strict(&wire_ids).unwrap();
            let inproc = handle.read_blocks(batch_ids).unwrap();
            for (pos, &id) in batch_ids.iter().enumerate() {
                // remote == in-process == direct, every position.
                assert_bit_identical(&remote[pos], &inproc[pos], id);
                assert_bit_identical(&remote[pos], &batch_want[pos], id);
            }
        }
        assert_eq!(client.stats().retries, 0, "clean serve must not retry");
        stop.stop();
        jh.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_fault_class_recovers_byte_identical() {
    let dir = common::tmpdir("transport-faults");
    let path = fixture(&dir, "faulted.eristore");
    let ids = shuffled_ids(BLOCKS, 0xFA17);

    let direct = StoreReader::open(&path).unwrap();
    let want: Vec<Vec<f64>> = ids.iter().map(|&i| direct.read_block(i).unwrap()).collect();

    for class in WireFault::ALL {
        let (local, stop, jh, _handle) =
            start_server(std::slice::from_ref(&path), &tcp_any(), &ServerConfig::default());
        let upstream = match &local {
            Endpoint::Tcp(addr) => addr.clone(),
            other => panic!("expected tcp endpoint, got {other}"),
        };
        // The first two connections carry the fault; the retry budget
        // outlives them. Offsets land past the 44-byte Hello frame, in
        // the data-bearing response stream.
        let proxy = FaultyProxy::start(
            &upstream,
            0x5EED ^ class as u64,
            ProxyFaultConfig {
                faulty_every: 1,
                classes: vec![class],
                max_faults: 2,
                stall: Duration::from_secs(2),
                offset_base: 60,
                offset_window: 1500,
            },
        )
        .unwrap();
        let proxy_ep = Endpoint::Tcp(proxy.addr());

        let mut client = RemoteClient::connect(&[proxy_ep], fault_client_cfg()).unwrap();
        for (batch_ids, batch_want) in ids.chunks(5).zip(want.chunks(5)) {
            let wire_ids: Vec<u64> = batch_ids.iter().map(|&i| i as u64).collect();
            let remote = client
                .read_blocks_strict(&wire_ids)
                .unwrap_or_else(|e| panic!("class {class:?}: {e}"));
            for (pos, &id) in batch_ids.iter().enumerate() {
                assert_bit_identical(&remote[pos], &batch_want[pos], id);
            }
        }

        let cs = client.stats();
        let tallies = proxy.stop();
        assert!(
            tallies.total() >= 1,
            "class {class:?} never fired: {tallies:?}"
        );
        assert!(
            cs.retries >= 1,
            "class {class:?} recovered without retrying? {cs:?} / {tallies:?}"
        );
        if class == WireFault::Corrupt {
            assert!(cs.frame_errors >= 1, "corrupt frames must be counted: {cs:?}");
        }
        stop.stop();
        jh.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hedged_failover_serves_every_block_when_a_replica_dies_mid_batch() {
    let dir = common::tmpdir("transport-hedge");
    // Two replica mounts of the same dataset: byte-identical stores.
    let path_a = fixture(&dir, "replica-a.eristore");
    let path_b = dir.join("replica-b.eristore");
    std::fs::copy(&path_a, &path_b).unwrap();

    let ids = shuffled_ids(BLOCKS, 0x4ED6);
    let direct = StoreReader::open(&path_a).unwrap();
    let want: Vec<Vec<f64>> = ids.iter().map(|&i| direct.read_block(i).unwrap()).collect();

    let (ep_a, stop_a, jh_a, _ha) =
        start_server(std::slice::from_ref(&path_a), &tcp_any(), &ServerConfig::default());
    let mut jh_a = Some(jh_a);
    let (ep_b, stop_b, jh_b, _hb) =
        start_server(std::slice::from_ref(&path_b), &tcp_any(), &ServerConfig::default());

    let mut client = RemoteClient::connect(&[ep_a, ep_b], fault_client_cfg()).unwrap();

    let mut served: Vec<Vec<f64>> = Vec::new();
    let batches: Vec<&[usize]> = ids.chunks(4).collect();
    for (bi, batch_ids) in batches.iter().enumerate() {
        if bi == batches.len() / 2 {
            // Kill the primary replica mid-batch-sequence; the client
            // currently holds a live connection to it.
            stop_a.stop();
            jh_a.take().unwrap().join().unwrap().unwrap();
        }
        let wire_ids: Vec<u64> = batch_ids.iter().map(|&i| i as u64).collect();
        served.extend(client.read_blocks_strict(&wire_ids).unwrap());
    }

    // Zero loss: every block in every batch, byte-identical.
    assert_eq!(served.len(), ids.len());
    for (pos, &id) in ids.iter().enumerate() {
        assert_bit_identical(&served[pos], &want[pos], id);
    }
    let cs = client.stats();
    assert!(cs.hedges >= 1, "failover must hedge to the live replica: {cs:?}");

    stop_b.stop();
    jh_b.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stall_past_deadline_is_an_error_not_a_hang() {
    let dir = common::tmpdir("transport-deadline");
    let path = fixture(&dir, "stall.eristore");

    let (local, stop, jh, _handle) =
        start_server(std::slice::from_ref(&path), &tcp_any(), &ServerConfig::default());
    let upstream = match &local {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("expected tcp endpoint, got {other}"),
    };
    // Every connection stalls for far longer than the whole deadline.
    let proxy = FaultyProxy::start(
        &upstream,
        0xDEAD,
        ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![WireFault::Stall],
            max_faults: u32::MAX,
            stall: Duration::from_secs(20),
            offset_base: 60,
            offset_window: 500,
        },
    )
    .unwrap();

    let cfg = ClientConfig {
        deadline: Duration::from_millis(900),
        attempt_timeout: Duration::from_millis(200),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_retries: 100, // the deadline, not the budget, must end it
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(5),
            jitter_seed: Some(1),
        },
        ..ClientConfig::default()
    };
    let started = Instant::now();
    let mut client = RemoteClient::connect(&[Endpoint::Tcp(proxy.addr())], cfg).unwrap();
    let err = client.read_blocks_strict(&[0, 1, 2]).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ClientError::DeadlineExceeded { .. }),
        "want DeadlineExceeded, got {err}"
    );
    assert!(!err.is_corruption(), "a blown deadline is exit 1, not 2");
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline must cut the stall short, took {elapsed:?}"
    );
    assert!(client.stats().deadline_exceeded >= 1, "{:?}", client.stats());

    drop(proxy);
    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_on_read_and_cache_admission_survive_the_wire() {
    let dir = common::tmpdir("transport-repair");
    let damaged = 13usize;
    // Two identically damaged copies: direct baseline vs remote serve.
    let direct_path = fixture(&dir, "repair-direct.eristore");
    let server_path = fixture(&dir, "repair-server.eristore");
    for p in [&direct_path, &server_path] {
        let bytes = std::fs::read(p).unwrap();
        let (off, len) = common::block_span(&bytes, damaged);
        let at = off + len / 2;
        BitFlipper::new(at, at + 4, 1, 0xBEEF).apply_to_file(p).unwrap();
        assert_ne!(std::fs::read(p).unwrap(), bytes, "injection must land");
    }

    // Direct baseline: heals the one block, counts one repair.
    let direct = StoreReader::open(&direct_path).unwrap();
    let ids: Vec<usize> = (0..BLOCKS).collect();
    let want: Vec<Vec<f64>> = ids.iter().map(|&i| direct.read_block(i).unwrap()).collect();
    let direct_stats = direct.read_stats();
    assert_eq!(direct_stats.blocks_repaired, 1, "baseline heals exactly one block");

    let (local, stop, jh, handle) =
        start_server(std::slice::from_ref(&server_path), &tcp_any(), &ServerConfig::default());
    let mut client = RemoteClient::connect(&[local], ClientConfig::default()).unwrap();

    let wire_ids: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
    let first = client.read_blocks_strict(&wire_ids).unwrap();
    for (pos, &id) in ids.iter().enumerate() {
        assert_bit_identical(&first[pos], &want[pos], id);
    }

    // Repair-on-read counter parity with the direct reader. Read from
    // the handle, not a scrape: the recorder is process-global and
    // other tests run in parallel.
    let rs = handle.read_stats();
    assert_eq!(rs.blocks_repaired, direct_stats.blocks_repaired, "{rs:?}");
    assert_eq!(handle.cache_stats().misses, BLOCKS as u64, "one store read per block");

    // Second pass: all cache hits, still the healed bytes — the cache
    // admitted only the post-repair block.
    let second = client.read_blocks_strict(&wire_ids).unwrap();
    for (pos, &id) in ids.iter().enumerate() {
        assert_bit_identical(&second[pos], &want[pos], id);
    }
    assert_eq!(handle.read_stats().blocks_repaired, 1, "a cache hit must not re-repair");
    let cs = handle.cache_stats();
    assert!(cs.hits >= BLOCKS as u64, "{cs:?}");
    assert_eq!(cs.misses, BLOCKS as u64, "no second store read");

    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_block_errors_degrade_without_sinking_the_batch() {
    let dir = common::tmpdir("transport-degraded");
    let shredded = 5usize;
    let path = fixture(&dir, "shred.eristore");
    // Shred one block beyond the parity budget (the eri-store idiom).
    {
        let mut bytes = std::fs::read(&path).unwrap();
        let (off, len) = common::block_span(&bytes, shredded);
        for p in (off + 8..off + len).step_by(7) {
            bytes[p as usize] ^= 0x55;
        }
        std::fs::write(&path, bytes).unwrap();
    }
    let direct = StoreReader::open(&path).unwrap();
    assert!(direct.read_block(shredded).is_err(), "shred must overwhelm parity");

    let (local, stop, jh, _handle) =
        start_server(std::slice::from_ref(&path), &tcp_any(), &ServerConfig::default());
    let mut client = RemoteClient::connect(&[local], ClientConfig::default()).unwrap();

    // One batch holding a corrupt block, a healthy block, and an
    // out-of-range id: each position gets its own verdict.
    let batch = [2u64, shredded as u64, 9, BLOCKS as u64 + 7];
    let got = client.read_blocks(&batch).unwrap();
    assert_eq!(got.len(), batch.len());

    assert_bit_identical(got[0].as_ref().unwrap(), &direct.read_block(2).unwrap(), 2);
    assert_bit_identical(got[2].as_ref().unwrap(), &direct.read_block(9).unwrap(), 9);

    let corrupt = got[1].as_ref().unwrap_err();
    assert_eq!(corrupt.kind, BlockErrorKind::Corruption, "{corrupt}");
    assert_eq!(corrupt.block, shredded as u64);

    let oor = got[3].as_ref().unwrap_err();
    assert_eq!(oor.kind, BlockErrorKind::OutOfRange, "{oor}");

    // Strict mode surfaces the corruption as the call error (exit 2).
    let err = client.read_blocks_strict(&batch).unwrap_err();
    assert!(err.is_corruption(), "{err}");

    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The frame cap must bound every exchange: a client fetching more
/// data than one 64 MiB frame could carry splits the id list into
/// chunked exchanges (exercised here with a shrunken budget so small
/// fixtures take the same code path), each byte-identical to direct
/// reads.
#[test]
fn whole_store_fetches_chunk_below_the_frame_cap_byte_identical() {
    let dir = common::tmpdir("transport-chunk");
    let path = fixture(&dir, "chunk.eristore");
    let ids: Vec<u64> = (0..BLOCKS as u64).collect();
    let direct = StoreReader::open(&path).unwrap();
    let want: Vec<Vec<f64>> =
        ids.iter().map(|&i| direct.read_block(i as usize).unwrap()).collect();

    let (local, stop, jh, _handle) =
        start_server(std::slice::from_ref(&path), &tcp_any(), &ServerConfig::default());
    let budget = 4096usize;
    let cfg = ClientConfig { max_response_bytes: budget, ..ClientConfig::default() };
    let mut client = RemoteClient::connect(&[local], cfg).unwrap();
    let hello = client.hello();
    let per_batch = eri_server::protocol::max_ids_per_read(
        hello.num_subblocks as usize * hello.subblock_size as usize,
        budget,
    );
    assert!((1..BLOCKS).contains(&per_batch), "budget must force chunking: {per_batch}");

    let got = client.read_blocks_strict(&ids).unwrap();
    assert_eq!(got.len(), ids.len());
    for (pos, &id) in ids.iter().enumerate() {
        assert_bit_identical(&got[pos], &want[pos], id as usize);
    }
    // One exchange per chunk — never one oversized frame.
    let exchanges = BLOCKS.div_ceil(per_batch) as u64;
    assert_eq!(client.stats().requests, exchanges, "{:?}", client.stats());
    assert_eq!(client.stats().retries, 0, "chunked reads must not retry");

    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A non-conforming client that asks for more blocks than one response
/// frame can answer gets structured per-block errors — not an
/// oversized frame it would reject as corrupt, and not a dropped
/// connection.
#[test]
fn oversized_batches_degrade_to_per_block_errors() {
    use eri_server::protocol::{self, Message, ReadRequest, WireBlock};

    let dir = common::tmpdir("transport-oversize");
    let path = fixture(&dir, "oversize.eristore");
    let (local, stop, jh, handle) =
        start_server(std::slice::from_ref(&path), &tcp_any(), &ServerConfig::default());
    let addr = match &local {
        Endpoint::Tcp(a) => a.clone(),
        other => panic!("expected tcp endpoint, got {other}"),
    };

    // Speak the protocol raw, bypassing RemoteClient's chunking.
    let mut sock = std::net::TcpStream::connect(&addr).unwrap();
    assert!(matches!(protocol::read_frame(&mut sock).unwrap(), Message::Hello(_)));
    let geom = handle.geometry();
    let cap = protocol::max_ids_per_read(
        geom.num_subblocks * geom.subblock_size,
        protocol::MAX_FRAME_PAYLOAD as usize,
    );
    let ids: Vec<u64> = (0..cap as u64 + 1).collect();
    protocol::write_frame(
        &mut sock,
        &Message::ReadRequest(ReadRequest { request_id: 9, budget_ms: 5000, trace_id: 0, span_id: 0, ids }),
    )
    .unwrap();
    let reply = protocol::read_frame(&mut sock).unwrap();
    let Message::ReadResponse(rs) = reply else { panic!("want ReadResponse") };
    assert_eq!(rs.request_id, 9);
    assert_eq!(rs.blocks.len(), cap + 1, "every slot answered");
    match &rs.blocks[0] {
        WireBlock::Error { kind, message } => {
            assert_eq!(*kind, BlockErrorKind::Io, "serving-path problem, not corruption");
            assert!(message.contains("frame budget"), "{message}");
        }
        other => panic!("first slot must carry the explanation, got {other:?}"),
    }
    assert!(
        rs.blocks[1..]
            .iter()
            .all(|b| matches!(b, WireBlock::Error { kind: BlockErrorKind::Io, .. })),
        "all slots degrade"
    );

    // The connection survives: a conforming batch still serves.
    protocol::write_frame(
        &mut sock,
        &Message::ReadRequest(ReadRequest { request_id: 10, budget_ms: 5000, trace_id: 0, span_id: 0, ids: vec![0, 1] }),
    )
    .unwrap();
    let Message::ReadResponse(rs2) = protocol::read_frame(&mut sock).unwrap() else {
        panic!("want ReadResponse")
    };
    assert!(rs2.blocks.iter().all(|b| matches!(b, WireBlock::Values(_))), "{rs2:?}");

    drop(sock);
    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Binding a Unix endpoint must never steal a live server's socket or
/// delete an unrelated file at the path; only a genuinely stale socket
/// (nobody accepting) is reclaimed.
#[test]
fn unix_bind_refuses_live_sockets_and_regular_files() {
    let dir = common::tmpdir("transport-bindsafe");
    let path = fixture(&dir, "bind.eristore");
    let sock = dir.join("live.sock");

    let (local, stop, jh, handle) =
        start_server(std::slice::from_ref(&path), &Endpoint::Unix(sock.clone()), &ServerConfig::default());

    // Second bind on the live socket: refused, socket left in place,
    // original server unharmed.
    let err = match TransportServer::bind(&Endpoint::Unix(sock.clone()), Arc::clone(&handle)) {
        Ok(_) => panic!("bind over a live socket must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert!(sock.exists(), "live socket must survive a bind attempt");
    let mut client = RemoteClient::connect(&[local], ClientConfig::default()).unwrap();
    assert!(client.read_blocks_strict(&[0]).is_ok(), "live server must keep serving");
    stop.stop();
    jh.join().unwrap().unwrap();

    // A regular file at the path is never removed.
    let file = dir.join("not-a-socket");
    std::fs::write(&file, b"precious").unwrap();
    let err = match TransportServer::bind(&Endpoint::Unix(file.clone()), Arc::clone(&handle)) {
        Ok(_) => panic!("bind over a regular file must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists, "{err}");
    assert_eq!(std::fs::read(&file).unwrap(), b"precious");

    // A stale socket (listener long gone) is reclaimed.
    let stale = dir.join("stale.sock");
    drop(std::os::unix::net::UnixListener::bind(&stale).unwrap());
    assert!(stale.exists(), "dropping a listener leaves the socket file");
    let srv = TransportServer::bind(&Endpoint::Unix(stale.clone()), Arc::clone(&handle)).unwrap();
    drop(srv);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: server-path transient-retry attribution. The same seeded
/// transient fault stream under the server's store reader and a direct
/// reader must cost the same `ReadStats`, and the server must surface
/// them through `ServerHandle::read_stats`.
#[test]
fn server_retry_attribution_matches_direct_reads() {
    let dir = common::tmpdir("transport-retry-parity");
    let path = fixture(&dir, "retry.eristore");
    let seed = 0x7121;
    let fault_cfg = FaultConfig {
        transient_rate: 0.08,
        max_transient_errors: 6,
        ..FaultConfig::default()
    };
    let retry = RetryPolicy {
        max_retries: 8,
        initial_backoff: Duration::ZERO, // fast tests; retries still counted
        max_backoff: Duration::ZERO,
        jitter_seed: None,
    };
    let ids: Vec<usize> = (0..BLOCKS).collect();

    // Direct baseline through the same injector.
    let direct = StoreReader::from_source(
        FaultyReader::new(std::fs::File::open(&path).unwrap(), seed, fault_cfg),
        retry,
    )
    .unwrap();
    let want: Vec<Vec<f64>> = ids.iter().map(|&i| direct.read_block(i).unwrap()).collect();
    let direct_stats = direct.read_stats();
    assert!(
        direct_stats.transient_retries > 0,
        "fault stream must actually fire: {direct_stats:?}"
    );

    // Server over the identical injector, read on one thread so the
    // read sequence is identical to the direct reader's.
    let cfg = ServerConfig { retry, ..ServerConfig::default() };
    let srv = ServerHandle::open_with_sources(&[&path], &cfg, &mut |p| {
        Ok(Box::new(FaultyReader::new(std::fs::File::open(p)?, seed, fault_cfg)))
    })
    .unwrap();
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let got = one_thread.install(|| srv.read_blocks(&ids)).unwrap();
    for (pos, &id) in ids.iter().enumerate() {
        assert_bit_identical(&got[pos], &want[pos], id);
    }

    assert_eq!(
        srv.read_stats(),
        direct_stats,
        "server-path retry attribution must match a direct reader"
    );
    assert_eq!(srv.cache_stats().misses, BLOCKS as u64, "one store read per block");
    std::fs::remove_dir_all(&dir).ok();
}

/// A source that panics on its first read after being armed — the
/// "panicking injected fault" of the poison-recovery satellite.
struct PanicOnce<R> {
    inner: R,
    armed: Arc<AtomicBool>,
}

impl<R: ReadAt> ReadAt for PanicOnce<R> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected fault: panic mid-read on the shared store reader");
        }
        self.inner.read_at(buf, offset)
    }

    fn size(&self) -> std::io::Result<u64> {
        self.inner.size()
    }
}

/// Satellite regression: a panic inside a store read must not brick the
/// server. The shared reader has no lock to poison: its state is a
/// read-only source, the index and atomic counters.
#[test]
fn panicking_injected_fault_does_not_poison_subsequent_reads() {
    let dir = common::tmpdir("transport-poison");
    let path = fixture(&dir, "poison.eristore");
    let armed = Arc::new(AtomicBool::new(false));

    let cfg = ServerConfig::default();
    let armed_factory = Arc::clone(&armed);
    let srv = ServerHandle::open_with_sources(&[&path], &cfg, &mut |p| {
        Ok(Box::new(PanicOnce {
            inner: std::fs::File::open(p)?,
            armed: Arc::clone(&armed_factory),
        }))
    })
    .unwrap();

    let direct = StoreReader::open(&path).unwrap();
    let ids: Vec<usize> = (0..BLOCKS).collect();

    // Arm after open (the header/index reads must succeed), then the
    // first batch read panics inside the shared reader.
    armed.store(true, Ordering::SeqCst);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = srv.read_blocks(&ids);
    }));
    assert!(unwound.is_err(), "the injected panic must propagate");

    // The reader must keep serving: every block, byte-identical.
    let got = srv.read_blocks(&ids).unwrap();
    for (pos, &id) in ids.iter().enumerate() {
        assert_bit_identical(&got[pos], &direct.read_block(id).unwrap(), id);
    }
    // And stats still aggregate after the panic.
    let _ = srv.read_stats();
    std::fs::remove_dir_all(&dir).ok();
}

/// The `rpc.*` telemetry name contract (DESIGN §10): a faulted remote
/// workload must light up the documented counters and the RTT
/// histogram under their exact names.
#[test]
fn rpc_telemetry_name_contract() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let dir = common::tmpdir("transport-telemetry");
    let path = fixture(&dir, "telemetry.eristore");

    let (local, stop, jh, _handle) =
        start_server(std::slice::from_ref(&path), &tcp_any(), &ServerConfig::default());
    let upstream = match &local {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("expected tcp endpoint, got {other}"),
    };
    let proxy = FaultyProxy::start(
        &upstream,
        0x7E1E,
        ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![WireFault::Corrupt],
            max_faults: 2,
            stall: Duration::from_secs(1),
            offset_base: 60,
            offset_window: 800,
        },
    )
    .unwrap();

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut client =
        RemoteClient::connect(&[Endpoint::Tcp(proxy.addr())], fault_client_cfg()).unwrap();
    let ids: Vec<u64> = (0..BLOCKS as u64).collect();
    for batch in ids.chunks(6) {
        client.read_blocks_strict(batch).unwrap();
    }
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    let cs = client.stats();
    assert!(snap.counter("rpc.requests") >= 4, "server counts request frames");
    assert!(snap.counter("rpc.retries") >= cs.retries, "client retry counter");
    assert!(snap.counter("rpc.frame_errors") >= 1, "corrupt frames counted");
    let rtt = snap
        .histograms
        .iter()
        .find(|h| h.name == "rpc.rtt_us")
        .expect("rpc.rtt_us histogram present");
    assert!(rtt.count >= 4, "one RTT observation per successful call");
    assert!(
        snap.spans_named("rpc.request").count() >= 4,
        "per-request server span present"
    );

    drop(proxy);
    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
