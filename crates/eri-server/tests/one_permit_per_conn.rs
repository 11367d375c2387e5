//! A connection holds at most one admission permit at a time.
//!
//! `transport::handle_conn` serves a connection's frames one at a time
//! and drops the permit after writing each reply, before it reads the
//! next frame. So a client that writes three `ReadRequest` frames
//! back-to-back on one connection is served strictly in order, and the
//! server never has more than one of them in flight — which is why the
//! admission controller needs no per-connection cap.
//!
//! Its own test binary: it reads the `server.in_flight` gauge from the
//! process-wide telemetry recorder, which no other test here may touch.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use eri_server::protocol::{self, Message, ReadRequest, WireBlock, PROTO_VERSION};
use eri_server::transport::Conn;
use eri_server::{
    Endpoint, InjectedLoad, OverloadInject, ServerConfig, ServerHandle, TransportServer,
};

const BLOCKS: usize = 6;

#[test]
fn back_to_back_requests_on_one_connection_never_overlap() {
    let dir = std::env::temp_dir().join(format!("pastri-eri-one-permit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("one-permit.eristore");
    let geom = pastri::BlockGeometry::new(4, 16);
    let mut w = eri_store::StoreWriter::create_durable(&path, geom, 1e-10, BLOCKS).unwrap();
    for b in 0..BLOCKS {
        let block: Vec<f64> = (0..geom.block_size())
            .map(|i| ((i + b) as f64 * 0.37).sin() * 1e-6)
            .collect();
        w.append_blocks(&block).unwrap();
    }
    w.finish().unwrap();
    let reader = eri_store::StoreReader::open(&path).unwrap();
    let stored: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|b| reader.read_frame_noting_repair(b).unwrap().0)
        .collect();

    // Every request's handler holds its permit for 30 ms: a server that
    // served one connection's frames concurrently would overlap them.
    let inject: Arc<dyn OverloadInject> = Arc::new(|_key: u64, _attempt: u32| InjectedLoad {
        shed: false,
        retry_after: Duration::ZERO,
        delay: Duration::from_millis(30),
    });
    let handle = ServerHandle::open(&[&path], &ServerConfig::default()).unwrap();
    let srv = TransportServer::bind_with(
        &Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
        Arc::new(handle),
        Some(inject),
    )
    .unwrap();
    let ep = srv.local_endpoint();

    telemetry::reset();
    telemetry::set_enabled(true);
    let server = std::thread::spawn(move || srv.run(Some(1)));

    let mut conn = Conn::connect(&ep, Duration::from_secs(2)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match protocol::read_frame(&mut conn).unwrap() {
        Message::Hello(h) => assert_eq!(h.version, PROTO_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    let batches: [Vec<u64>; 3] = [vec![0, 1], vec![5], vec![2, 3, 4]];
    for (k, ids) in batches.iter().enumerate() {
        let rq = ReadRequest {
            request_id: 100 + k as u64,
            budget_ms: 5_000,
            trace_id: 0,
            span_id: 0,
            ids: ids.clone(),
        };
        protocol::write_frame(&mut conn, &Message::ReadRequest(rq)).unwrap();
    }
    conn.flush().unwrap();

    for (k, ids) in batches.iter().enumerate() {
        let Message::ReadResponse(rr) = protocol::read_frame(&mut conn).unwrap() else {
            panic!("request {k} must get a ReadResponse");
        };
        assert_eq!(
            rr.request_id,
            100 + k as u64,
            "responses come back in request order"
        );
        assert_eq!(rr.blocks.len(), ids.len());
        for (slot, &id) in rr.blocks.iter().zip(ids) {
            match slot {
                WireBlock::Frame(c) => {
                    assert_eq!(
                        c, &stored[id as usize],
                        "block {id} is the stored frame"
                    );
                }
                WireBlock::Error { kind, message } => panic!("block {id}: {kind:?} {message}"),
            }
        }
    }
    drop(conn);
    server.join().unwrap().unwrap();

    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    let in_flight = snap
        .gauges
        .iter()
        .find(|g| g.name == "server.in_flight")
        .expect("the server recorded its in-flight gauge");
    assert_eq!(
        in_flight.max, 1,
        "one connection never holds two permits: {in_flight:?}"
    );
    let admitted = snap
        .counters
        .iter()
        .find(|c| c.name == "server.admitted")
        .map(|c| c.value);
    assert_eq!(admitted, Some(3), "all three requests were admitted");
    let _ = std::fs::remove_dir_all(&dir);
}
