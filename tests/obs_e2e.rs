//! Observability-plane end-to-end battery (DESIGN §15).
//!
//! Four contracts, each over a real wire (TCP loopback, real
//! `TransportServer`):
//!
//! 1. **Name contract / scrape fidelity** — every `rpc.*`, `server.*`,
//!    `cache.*`, and admission telemetry name observed in-process
//!    round-trips through a `TelemetrySnapshot` wire scrape
//!    bit-identically: counters and histograms byte-for-byte equal,
//!    and re-serializing the parsed scrape reproduces the wire bytes.
//! 2. **Deterministic trace ids** — the trace-id stream is a pure
//!    function of the seed (CI runs this at `RAYON_NUM_THREADS` 1 and
//!    4; the ids must not depend on thread count).
//! 3. **Acceptance scenario** — a seeded fetch through a `FaultyProxy`
//!    *and* a seeded `OverloadInjector` still propagates the client's
//!    trace id into every server-side span it causes, and
//!    `pastri trace --merge` joins the client and server exports into
//!    one timeline on that id.
//! 4. **`pastri top --once --json`** against a live serving endpoint
//!    reports non-zero requests/s, cache hit rate, and read p99.

mod common;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use eri_server::{
    ClientConfig, Endpoint, InjectedLoad, OverloadInject, RemoteClient, ServerConfig,
    ServerHandle, TransportServer,
};
use eri_store::RetryPolicy;
use faults::overload::{OverloadConfig, OverloadInjector};
use faults::proxy::{FaultyProxy, ProxyFaultConfig, WireFault};
use pastri::BlockGeometry;
use telemetry::export::{from_json_lines, json_lines};

/// Telemetry is process-global; serialize every test that touches it.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const EB: f64 = 1e-10;
const BLOCKS: usize = 16;

fn geom() -> BlockGeometry {
    BlockGeometry::new(4, 32)
}

fn fixture(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    common::build_store(&path, geom(), EB, BLOCKS, 7300);
    path
}

/// Starts a TCP transport server over `path` with an optional overload
/// injector.
#[allow(clippy::type_complexity)]
fn start_server(
    path: &Path,
    inject: Option<Arc<dyn OverloadInject>>,
) -> (
    String,
    eri_server::StopHandle,
    std::thread::JoinHandle<std::io::Result<u64>>,
) {
    let handle = Arc::new(
        ServerHandle::open(&[path.to_path_buf()], &ServerConfig::default()).unwrap(),
    );
    let srv = Arc::new(
        TransportServer::bind_with(&Endpoint::Tcp("127.0.0.1:0".into()), handle, inject).unwrap(),
    );
    let Endpoint::Tcp(addr) = srv.local_endpoint() else { unreachable!() };
    let stop = srv.stop_handle();
    let jh = srv.spawn(None);
    (addr, stop, jh)
}

fn client_cfg(seed: u64) -> ClientConfig {
    ClientConfig {
        deadline: Duration::from_secs(30),
        attempt_timeout: Duration::from_millis(400),
        connect_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            jitter_seed: Some(seed),
        },
        ..ClientConfig::default()
    }
}

/// Satellite: every telemetry name observed in-process round-trips
/// through a wire scrape bit-identically.
#[test]
fn scrape_round_trips_every_observed_name_bit_identically() {
    let _guard = lock();
    let dir = common::tmpdir("obs-scrape");
    let path = fixture(&dir, "scrape.eristore");
    let (addr, stop, jh) = start_server(&path, None);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut client =
        RemoteClient::connect(&[Endpoint::Tcp(addr)], client_cfg(0x0B5)).unwrap();
    let ids: Vec<u64> = (0..BLOCKS as u64).collect();
    client.read_blocks_strict(&ids).unwrap();
    client.read_blocks_strict(&ids).unwrap(); // second pass: cache hits

    // Let the server finish post-response bookkeeping (permit release)
    // before freezing the local reference snapshot.
    std::thread::sleep(Duration::from_millis(100));
    let local = telemetry::snapshot();
    let wire = client.server_telemetry().unwrap();
    telemetry::set_enabled(false);

    let text = String::from_utf8(wire).unwrap();
    let scraped = from_json_lines(&text).expect("scrape parses");

    // Re-serializing the parsed scrape must reproduce the wire bytes:
    // the snapshot format is canonical, nothing is lossy.
    assert_eq!(json_lines(&scraped), text, "scrape must re-serialize bit-identically");

    // The names the serving path emits must all have crossed the wire.
    for want in ["rpc.requests", "server.requests", "server.blocks", "cache.hits", "cache.misses"]
    {
        assert!(
            local.counters.iter().any(|c| c.name == want),
            "expected {want} observed in-process"
        );
    }
    // Counters and histograms mutate only on the serving path, which
    // was quiet between the local snapshot and the scrape's own
    // snapshot — except the scrape itself, which by design snapshots
    // *before* counting itself. So: byte-for-byte equality.
    for c in &local.counters {
        let got = scraped.counters.iter().find(|s| s.name == c.name);
        assert_eq!(got, Some(c), "counter {} must round-trip bit-identically", c.name);
    }
    for h in &local.histograms {
        let got = scraped.histograms.iter().find(|s| s.name == h.name);
        assert_eq!(got, Some(h), "histogram {} must round-trip bit-identically", h.name);
    }
    // Gauges can legitimately move (in-flight drains asynchronously);
    // the name contract still holds.
    for g in &local.gauges {
        assert!(
            scraped.gauges.iter().any(|s| s.name == g.name),
            "gauge {} must appear in the scrape",
            g.name
        );
    }
    assert!(
        local.counters.iter().any(|c| c.name == "cache.hits" && c.value > 0),
        "second read pass must hit the cache"
    );

    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: trace ids are a pure function of the seed — identical
/// across reruns and across `RAYON_NUM_THREADS` settings (CI runs this
/// test at 1 and 4 threads and diffs nothing but the environment).
#[test]
fn trace_ids_are_a_pure_function_of_the_seed() {
    let _guard = lock();
    for seed in [0u64, 7, 42, 0xDEAD_BEEF] {
        let first: Vec<_> = (0..256).map(|n| telemetry::trace_ids(seed, n)).collect();
        let second: Vec<_> = (0..256).map(|n| telemetry::trace_ids(seed, n)).collect();
        assert_eq!(first, second, "trace_ids(seed={seed}) must be pure");
        for ctx in &first {
            assert_ne!(ctx.trace_id, 0, "trace ids are never 0");
            assert_ne!(ctx.span_id, 0, "span ids are never 0");
        }
        // The stateful stream replays the pure function after re-seed.
        telemetry::set_trace_seed(seed);
        for want in first.iter().take(64) {
            assert_eq!(telemetry::new_trace(), *want, "new_trace must replay trace_ids");
        }
    }
    // Distinct seeds decorrelate.
    assert_ne!(telemetry::trace_ids(1, 0), telemetry::trace_ids(2, 0));
}

/// Acceptance: a seeded fetch against a faulty, overloaded server
/// still lands the client's trace id on every server-side span, and
/// `pastri trace --merge` joins the two exports on that id.
#[test]
fn faulty_overloaded_fetch_traces_end_to_end_and_merges() {
    let _guard = lock();
    let dir = common::tmpdir("obs-accept");
    let path = fixture(&dir, "accept.eristore");

    // Seeded overload: forced sheds + slow-handler delays.
    let injector = OverloadInjector::new(0x00BE_5EED, OverloadConfig::default());
    let inject = move |key: u64, attempt: u32| {
        let d = injector.decide(key, attempt);
        InjectedLoad { shed: d.shed, retry_after: d.retry_after, delay: d.delay }
    };
    let (addr, stop, jh) = start_server(&path, Some(Arc::new(inject)));

    // Seeded wire faults between client and server: the truncation
    // lands past the Hello and before the end of the one response.
    let ids: Vec<u64> = (0..BLOCKS as u64).collect();
    let all: Vec<usize> = (0..BLOCKS).collect();
    let exchange_end = common::HELLO_FRAME_LEN + common::read_response_frame_len(&path, &all);
    let proxy = FaultyProxy::start(
        &addr,
        0x0BE5,
        ProxyFaultConfig {
            faulty_every: 1,
            classes: vec![WireFault::Truncate, WireFault::Reset],
            max_faults: 2,
            stall: Duration::from_secs(2),
            offset_base: 60,
            offset_window: exchange_end - 60,
        },
    )
    .unwrap();

    telemetry::reset();
    telemetry::set_enabled(true);
    telemetry::set_trace_seed(42);
    let want = telemetry::trace_ids(42, 0);
    {
        let _trace = telemetry::push_trace(telemetry::new_trace());
        let _span = telemetry::span("client.fetch");
        let mut client =
            RemoteClient::connect(&[Endpoint::Tcp(proxy.addr())], client_cfg(42)).unwrap();
        let blocks = client.read_blocks_strict(&ids).unwrap();
        assert_eq!(blocks.len(), BLOCKS, "all blocks served despite faults and sheds");
    }
    std::thread::sleep(Duration::from_millis(100));
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    let tallies = proxy.stop();
    for class in [WireFault::Truncate, WireFault::Reset] {
        assert!(tallies.of(class) >= 1, "{class:?} never fired: {tallies:?}");
    }
    stop.stop();
    jh.join().unwrap().unwrap();

    // Every server-side span for the request carries the client's
    // trace id — adopted over the wire, not inherited in-process.
    let mut server_spans = 0;
    for s in &snap.spans {
        if s.name == "server.batch" || s.name == "rpc.request" {
            server_spans += 1;
            assert_eq!(
                s.trace, want.trace_id,
                "server-side span {} must carry the client's trace id",
                s.name
            );
        }
    }
    assert!(server_spans > 0, "the fetch must have produced server-side spans");
    let client_span = snap
        .spans
        .iter()
        .find(|s| s.name == "client.fetch")
        .expect("client anchor span recorded");
    assert_eq!(client_span.trace, want.trace_id);

    // Split the recorder's view into the two exports the real
    // two-process deployment produces, and merge them with the CLI.
    let mut client_snap = snap.clone();
    client_snap.spans.retain(|s| s.name == "client.fetch");
    client_snap.events.clear();
    let mut server_snap = snap.clone();
    server_snap.spans.retain(|s| s.name != "client.fetch");

    let client_path = dir.join("client.jsonl");
    let server_path = dir.join("server.jsonl");
    std::fs::write(&client_path, json_lines(&client_snap)).unwrap();
    std::fs::write(&server_path, json_lines(&server_snap)).unwrap();

    let merged_path = dir.join("merged.json");
    let argv: Vec<String> = [
        "trace",
        "--merge",
        client_path.to_str().unwrap(),
        server_path.to_str().unwrap(),
        "--out",
        merged_path.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut out = Vec::new();
    pastri_cli::run(&argv, &mut out).expect("trace --merge succeeds");
    let report = String::from_utf8(out).unwrap();
    assert!(
        report.contains("merged 2 export(s)"),
        "merge report should mention both exports: {report}"
    );
    assert!(
        report.contains("1 joined across processes"),
        "the client's trace id must join both exports: {report}"
    );

    let merged = std::fs::read_to_string(&merged_path).unwrap();
    assert!(merged.contains("\"pid\":1") && merged.contains("\"pid\":2"));
    assert!(merged.contains("client.fetch") && merged.contains("server.batch"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: `pastri top --once --json` against a live endpoint
/// reports non-zero requests/s, cache hit rate, and read p99.
#[test]
fn top_once_json_reports_live_rates() {
    let _guard = lock();
    let dir = common::tmpdir("obs-top");
    let path = fixture(&dir, "top.eristore");
    let (addr, stop, jh) = start_server(&path, None);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut client =
        RemoteClient::connect(&[Endpoint::Tcp(addr.clone())], client_cfg(0x709)).unwrap();
    let ids: Vec<u64> = (0..BLOCKS as u64).collect();
    client.read_blocks_strict(&ids).unwrap();
    client.read_blocks_strict(&ids).unwrap(); // cache hits on pass two
    drop(client);

    let argv: Vec<String> = ["top", &format!("tcp:{addr}"), "--once", "--json"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    pastri_cli::run(&argv, &mut out).expect("top --once --json succeeds");
    telemetry::set_enabled(false);
    let text = String::from_utf8(out).unwrap();
    let line = text.lines().find(|l| l.starts_with('{')).expect("one JSON object line");

    let field = |key: &str| -> f64 {
        let tag = format!("\"{key}\":");
        let at = line.find(&tag).unwrap_or_else(|| panic!("{key} missing from {line}"));
        let rest = &line[at + tag.len()..];
        let end = rest.find([',', '}']).unwrap();
        rest[..end].trim().parse().unwrap_or_else(|_| panic!("{key} not numeric in {line}"))
    };
    assert!(field("requests_per_s") > 0.0, "non-zero requests/s: {line}");
    assert!(field("cache_hit_rate") > 0.0, "non-zero cache hit rate: {line}");
    assert!(field("read_p99_us") > 0.0, "non-zero read p99: {line}");
    assert!(field("requests_total") >= 2.0, "both batches counted: {line}");

    stop.stop();
    jh.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal records structured events for sheds and wire faults,
/// bounded by the ring with per-kind drop counters.
#[test]
fn journal_captures_shed_and_fault_events_bounded() {
    let _guard = lock();
    telemetry::reset();
    telemetry::set_enabled(true);
    // Saturate well past the ring capacity.
    for i in 0..2048u64 {
        telemetry::journal("shed.queue_full", i, 1);
    }
    telemetry::journal("wire.truncate", 99, 0);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    let drops: u64 = snap.events_dropped.iter().map(|c| c.value).sum();
    assert_eq!(snap.events.len() as u64 + drops, 2049, "ring + drops account for every event");
    assert!(
        snap.events.iter().any(|e| e.kind == "wire.truncate"),
        "the newest event survives drop-oldest"
    );
    assert!(
        snap.events_dropped.iter().any(|c| c.name == "shed.queue_full" && c.value > 0),
        "drops are counted per kind"
    );
}
