//! Integration tests for the overload-control layer (DESIGN §14):
//! graceful drain books and the single PTRF wire version.
//!
//! * **Drain, don't drop.** A server with slow (injected-delay)
//!   handlers is drained while concurrent clients hammer it. The
//!   admission books must balance (`admitted == completed`, drain
//!   complete) and every response a client *did* receive must be
//!   byte-identical to the store — an admitted request is never
//!   dropped or torn, and every refusal is a structured error.
//! * **Raw frames.** A client speaking bare `ReadRequest` frames gets
//!   correct data and, when the server sheds, a structured
//!   `Overloaded` frame carrying the retry hint.
//! * **One version.** A `RemoteClient` refuses a server announcing any
//!   other protocol version with a protocol error naming both.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use durable::retry::RetryPolicy;
use eri_server::protocol::{
    self, Hello, Message, OverloadReason, Overloaded, ReadRequest, WireBlock, PROTO_VERSION,
};
use eri_server::transport::Conn;
use eri_server::{
    ClientConfig, ClientError, Endpoint, InjectedLoad, OverloadInject, RemoteClient, ServerConfig,
    ServerHandle, TransportServer,
};

const BLOCKS: usize = 8;
const SUBBLOCKS: usize = 4;
const SUBBLOCK_SIZE: usize = 16;

/// Same patterned-block fixture the CLI integration tests use, so a
/// fetched block can be recomputed and compared value-for-value.
fn expected_block(b: usize) -> Vec<f64> {
    let mut block = Vec::with_capacity(SUBBLOCKS * SUBBLOCK_SIZE);
    for sb in 0..SUBBLOCKS {
        let s = ((sb + b) as f64 * 0.61).cos();
        for i in 0..SUBBLOCK_SIZE {
            block.push(s * ((i + b) as f64 * 0.37).sin() * 1e-6);
        }
    }
    block
}

fn build_store(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("overload.eristore");
    let geom = pastri::BlockGeometry::new(SUBBLOCKS, SUBBLOCK_SIZE);
    let mut w = eri_store::StoreWriter::create_durable(&path, geom, 1e-10, BLOCKS).unwrap();
    for b in 0..BLOCKS {
        w.append_blocks(&expected_block(b)).unwrap();
    }
    w.finish().unwrap();
    path
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pastri-eri-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The decompressed values are lossy-compressed under eb 1e-10; a
/// served block must match the original within that bound.
fn assert_block_close(got: &[f64], b: usize) {
    let want = expected_block(b);
    assert_eq!(got.len(), want.len(), "block {b}: wrong length");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!((g - w).abs() <= 1e-9, "block {b} value {i}: {g} vs {w}");
    }
}

fn bind_server(
    store: &std::path::Path,
    inject: Option<Arc<dyn OverloadInject>>,
) -> (TransportServer, Endpoint) {
    let cfg = ServerConfig::default();
    let handle = ServerHandle::open(&[&store], &cfg).unwrap();
    let srv = TransportServer::bind_with(
        &Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
        Arc::new(handle),
        inject,
    )
    .unwrap();
    let ep = srv.local_endpoint();
    (srv, ep)
}

/// Drain books balance under concurrent load with slow handlers: no
/// admitted request is dropped, no received response is torn, every
/// refusal is structured.
#[test]
fn drain_books_prove_no_admitted_request_was_dropped() {
    let dir = tmpdir("drain-books");
    let store = build_store(&dir);

    // Every request's handler sleeps 2 ms, so the drain reliably
    // catches requests mid-service.
    let inject = Arc::new(|_key: u64, _attempt: u32| InjectedLoad {
        shed: false,
        retry_after: Duration::ZERO,
        delay: Duration::from_millis(2),
    });
    let (srv, ep) = bind_server(&store, Some(inject));
    let stop = srv.stop_handle();
    let server = std::thread::spawn(move || srv.run(None));

    let ok_reads = Arc::new(AtomicU64::new(0));
    let refusals = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for c in 0..4u64 {
        let ep = ep.clone();
        let ok_reads = Arc::clone(&ok_reads);
        let refusals = Arc::clone(&refusals);
        clients.push(std::thread::spawn(move || {
            let cfg = ClientConfig {
                deadline: Duration::from_secs(2),
                ..ClientConfig::default()
            };
            let Ok(mut client) = RemoteClient::connect(&[ep], cfg) else {
                // The drain may land before this client's handshake;
                // a structured connect error is a fine outcome.
                return;
            };
            for round in 0..200u64 {
                let ids: Vec<u64> = (0..3).map(|i| (c + round + i) % BLOCKS as u64).collect();
                match client.read_blocks(&ids) {
                    Ok(blocks) => {
                        // An accepted request is never torn: every
                        // delivered block is the store's block.
                        assert_eq!(blocks.len(), ids.len());
                        for (slot, id) in blocks.iter().zip(&ids) {
                            let vals = slot.as_ref().expect("clean store block errored");
                            assert_block_close(vals, *id as usize);
                        }
                        ok_reads.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        // Draining/stopped: structured refusal by
                        // construction (it reached us as a typed
                        // ClientError, not a torn response).
                        refusals.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }));
    }

    // Let the clients get in flight, then drain.
    std::thread::sleep(Duration::from_millis(60));
    let outcome = stop.drain(Duration::from_secs(10));
    for t in clients {
        t.join().unwrap();
    }
    server.join().unwrap().unwrap();

    assert!(outcome.complete, "drain must finish within its deadline: {outcome:?}");
    assert_eq!(outcome.in_flight_at_deadline, 0);
    assert_eq!(
        outcome.stats.admitted, outcome.stats.completed,
        "admitted requests must all complete: {outcome:?}"
    );
    assert!(outcome.stats.admitted > 0, "the storm admitted nothing");
    assert!(ok_reads.load(Ordering::SeqCst) > 0, "no client ever succeeded");
}

/// Connects raw, checks the `Hello`, sends one `ReadRequest` for `ids`
/// and returns the reply.
fn raw_read(ep: &Endpoint, request_id: u64, ids: Vec<u64>) -> Message {
    let mut conn = Conn::connect(ep, Duration::from_secs(2)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match protocol::read_frame(&mut conn).unwrap() {
        Message::Hello(h) => assert_eq!(h.version, PROTO_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    let rq = ReadRequest { request_id, budget_ms: 2_000, trace_id: 0, span_id: 0, ids };
    protocol::write_frame(&mut conn, &Message::ReadRequest(rq)).unwrap();
    conn.flush().unwrap();
    protocol::read_frame(&mut conn).unwrap()
}

/// A raw-frame client gets the store's frames for a `ReadRequest`
/// (decoding to its values), and
/// a structured `Overloaded` frame with the retry hint when shed.
#[test]
fn raw_read_requests_get_values_or_a_structured_shed() {
    let dir = tmpdir("raw-frames");
    let store = build_store(&dir);

    let (srv, ep) = bind_server(&store, None);
    let server = std::thread::spawn(move || srv.run(Some(1)));
    match raw_read(&ep, 7, vec![0, 3]) {
        Message::ReadResponse(rr) => {
            assert_eq!(rr.request_id, 7);
            assert_eq!(rr.blocks.len(), 2);
            for (slot, id) in rr.blocks.iter().zip([0usize, 3]) {
                match slot {
                    WireBlock::Frame(c) => {
                        let geom = pastri::BlockGeometry::new(SUBBLOCKS, SUBBLOCK_SIZE);
                        assert_block_close(&pastri::decompress_block(c, geom, 1e-10).unwrap(), id)
                    }
                    WireBlock::Error { kind, message } => {
                        panic!("clean block {id} errored: {kind:?} {message}")
                    }
                }
            }
        }
        other => panic!("a read must get a ReadResponse, got {other:?}"),
    }
    server.join().unwrap().unwrap();

    let inject = Arc::new(|_key: u64, _attempt: u32| InjectedLoad {
        shed: true,
        retry_after: Duration::from_millis(9),
        delay: Duration::ZERO,
    });
    let (srv, ep) = bind_server(&store, Some(inject));
    let server = std::thread::spawn(move || srv.run(Some(1)));
    assert_eq!(
        raw_read(&ep, 8, vec![1, 2]),
        Message::Overloaded(Overloaded {
            request_id: 8,
            reason: OverloadReason::Shed,
            retry_after_ms: 9,
        })
    );
    server.join().unwrap().unwrap();
}

/// A `RemoteClient` refuses a server announcing another protocol
/// version (a clean protocol error naming both versions, no downgrade)
/// or an error bound that is not finite and positive.
#[test]
fn client_refuses_a_server_speaking_another_version() {
    let old = PROTO_VERSION - 1;
    // Frames carry no error bound of their own: the `Hello`'s decodes
    // every block.
    let cases = [
        (old, 1e-10, [old.to_string(), PROTO_VERSION.to_string()]),
        (PROTO_VERSION, f64::NAN, ["error bound NaN".into(), String::new()]),
    ];
    for (version, error_bound, names) in cases {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Mock server: one connection, one Hello.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = Conn::Tcp(stream);
            let hello =
                Hello { version, num_blocks: 4, num_subblocks: 1, subblock_size: 4, error_bound };
            protocol::write_frame(&mut conn, &Message::Hello(hello)).unwrap();
            conn.flush().unwrap();
            // The client must hang up without sending a frame.
            protocol::read_frame(&mut conn).is_err()
        });

        let ep = Endpoint::parse(&format!("tcp:{addr}")).unwrap();
        let cfg = ClientConfig {
            retry: RetryPolicy { max_retries: 0, ..RetryPolicy::default() },
            ..ClientConfig::default()
        };
        let err = match RemoteClient::connect(&[ep], cfg) {
            Ok(_) => panic!("a version-{version} server at EB {error_bound} must be refused"),
            Err(e) => e,
        };
        let ClientError::Protocol(msg) = &err else { panic!("want a protocol error, got {err}") };
        assert!(names.iter().all(|n| msg.contains(n.as_str())), "names {names:?}: {msg}");
        assert!(server.join().unwrap(), "the client sent nothing after the Hello");
    }
}
