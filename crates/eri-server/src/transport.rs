//! Socket transport for [`crate::ServerHandle`]: Unix-domain and TCP
//! listeners speaking the PTRF frame protocol (see [`crate::protocol`]).
//!
//! Design rules (DESIGN §13):
//!
//! * **Never a hung connection.** The accept loop and every
//!   per-connection handler poll a stop flag between frames (short read
//!   timeouts), so `StopHandle::stop` tears the server down even with
//!   clients mid-conversation — which is exactly how the differential
//!   battery kills a replica mid-batch.
//! * **Never a panic on hostile bytes.** A frame that fails magic,
//!   length-cap, or CRC validation counts `rpc.frame_errors` and closes
//!   the connection; the framing layer has already bounds-checked every
//!   field, so nothing is decoded from a frame that wasn't proven
//!   intact.
//! * **Degraded, not dead.** Block reads go through
//!   `crate::ServerHandle::read_blocks_each`: a corrupt block becomes
//!   a structured per-block error in the response while its siblings
//!   are served normally.
//! * **Slow peers are bounded.** Once a frame's first byte arrives the
//!   whole frame must land within `FRAME_TIMEOUT` (5 s) — an *absolute*
//!   deadline, so a peer trickling one byte per read cannot keep
//!   resetting the clock — and handlers keep polling the stop flag
//!   mid-frame, so one bad peer can neither pin a handler thread nor
//!   stall server shutdown.
//! * **Bounded responses.** A batch whose worst-case response would
//!   not fit one `MAX_FRAME_PAYLOAD` frame degrades to structured
//!   per-block errors instead of an oversized frame the client would
//!   reject as corrupt (conforming clients chunk with
//!   [`crate::protocol::max_ids_per_read`] and never trip this).
//! * **Overload sheds, never stalls.** Every request after `Hello`
//!   passes admission control ([`crate::admission`]): a global in-flight
//!   permit budget, a response-bytes budget, and a deadline-aware
//!   queue that refuses a request *immediately* when its estimated
//!   wait exceeds the deadline budget it carried.
//!   A shed surfaces as an `Overloaded` frame with a retry-after hint
//!   — never as a silent timeout.
//! * **Drain, don't drop.** [`StopHandle::drain`] stops admitting,
//!   refuses new requests with a `Draining` status, waits for every
//!   admitted request to finish, then stops the listener. The
//!   admission books (`admitted == completed`) prove no accepted
//!   request was dropped.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admission::{
    Admission, AdmissionConfig, AdmissionController, DrainOutcome, InjectedLoad, OverloadInject,
    Permit,
};
use crate::protocol::{
    self, BlockErrorKind, FrameError, FrameHeader, Hello, Message, Overloaded, ReadRequest,
    ReadResponse, WireBlock, HEADER_LEN, PROTO_VERSION,
};
use telemetry::TraceContext;
use crate::{ServerError, ServerHandle};

/// Where a server listens / a client connects: `tcp:host:port` or
/// `unix:/path/to.sock` (a bare `host:port` parses as TCP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    Tcp(String),
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint spec. Accepted forms: `tcp:HOST:PORT`,
    /// `unix:PATH`, or a bare `HOST:PORT` (TCP).
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(rest) = spec.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Endpoint::Unix(PathBuf::from(rest)));
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        if addr.is_empty() || !addr.contains(':') {
            return Err(format!("bad endpoint {spec:?}: want tcp:HOST:PORT or unix:PATH"));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One established connection, either family, with uniform timeout and
/// shutdown control.
pub enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `ep`. TCP honors `timeout` for the connect itself;
    /// Unix-domain connects are local and effectively immediate.
    pub fn connect(ep: &Endpoint, timeout: Duration) -> io::Result<Conn> {
        match ep {
            Endpoint::Tcp(addr) => {
                let mut last = None;
                for sa in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sa, timeout) {
                        Ok(s) => {
                            s.set_nodelay(true)?;
                            return Ok(Conn::Tcp(s));
                        }
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "endpoint resolved to no address")
                }))
            }
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }

    /// `None` blocks forever; `Some(d)` errors with `WouldBlock` /
    /// `TimedOut` after `d`.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    pub(crate) fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }

    pub(crate) fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// How often idle handlers check the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Budget for finishing a frame once its first byte arrived — cuts off
/// peers that stall mid-frame.
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);
/// Budget for writing a response back.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Read requests whose service time crosses this threshold are recorded
/// in the structured event journal (`rpc.slow`), tagged with the
/// request's trace id.
const SLOW_REQUEST: Duration = Duration::from_millis(100);

/// Stops a running [`TransportServer`] from another thread: sets the
/// flag, then pokes the listener so a blocked `accept` returns.
#[derive(Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    ep: Endpoint,
    admission: Arc<AdmissionController>,
}

impl StopHandle {
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept(2); handlers notice the flag at their next
        // idle poll. Connect failure is fine — the listener may
        // already be gone.
        if let Ok(c) = Conn::connect(&self.ep, Duration::from_millis(200)) {
            let _ = c.shutdown();
        }
    }

    /// Stops admitting *without* stopping the listener: new and queued
    /// requests get a structured `Draining` refusal while requests
    /// already holding a permit run to completion. Use
    /// [`StopHandle::drain`] for the full drain-then-stop sequence.
    pub fn begin_drain(&self) {
        self.admission.begin_drain();
    }

    /// Graceful shutdown: stop admitting, wait (up to `deadline`) for
    /// every admitted request to finish, then stop the listener. The
    /// returned books prove no admitted request was dropped:
    /// `outcome.stats.admitted == outcome.stats.completed` whenever
    /// `outcome.complete`.
    pub fn drain(&self, deadline: Duration) -> DrainOutcome {
        self.admission.begin_drain();
        let outcome = self.admission.await_drained(deadline);
        self.stop();
        outcome
    }

    /// The admission controller behind this server (drain books,
    /// shed counters).
    #[must_use]
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }
}

/// A bound-but-not-yet-serving transport server. `bind` then `run`;
/// `run` returns once stopped (or after `max_conns` connections, which
/// is how the CLI tests drive a bounded serve).
pub struct TransportServer {
    listener: Listener,
    handle: Arc<ServerHandle>,
    stop: Arc<AtomicBool>,
    local: Endpoint,
    inject: Option<Arc<dyn OverloadInject>>,
    admission: Arc<AdmissionController>,
}

impl TransportServer {
    /// Binds `ep`. `tcp:127.0.0.1:0` picks an ephemeral port — read the
    /// real one back with [`TransportServer::local_endpoint`]. A Unix
    /// socket path is reclaimed only if it holds a *stale* socket (a
    /// probe connect finds nobody listening): a live server's socket
    /// fails with `AddrInUse`, and a non-socket file is never removed
    /// (`AlreadyExists`).
    pub fn bind(ep: &Endpoint, handle: Arc<ServerHandle>) -> io::Result<Self> {
        Self::bind_with(ep, handle, None)
    }

    /// [`TransportServer::bind`] with a seeded overload injector (soak
    /// and tests only) that forces deterministic sheds and slow-handler
    /// delays.
    pub fn bind_with(
        ep: &Endpoint,
        handle: Arc<ServerHandle>,
        inject: Option<Arc<dyn OverloadInject>>,
    ) -> io::Result<Self> {
        let (listener, local) = match ep {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let local: SocketAddr = l.local_addr()?;
                (Listener::Tcp(l), Endpoint::Tcp(local.to_string()))
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    let ft = std::fs::symlink_metadata(path)?.file_type();
                    if !std::os::unix::fs::FileTypeExt::is_socket(&ft) {
                        return Err(io::Error::new(
                            io::ErrorKind::AlreadyExists,
                            format!(
                                "{} exists and is not a socket; refusing to remove it",
                                path.display()
                            ),
                        ));
                    }
                    // Probe before unlinking: a socket that still
                    // accepts connections belongs to a live server and
                    // must not be stolen out from under it.
                    match UnixStream::connect(path) {
                        Ok(probe) => {
                            drop(probe);
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!("{} has a live server listening", path.display()),
                            ));
                        }
                        // Nobody home: a leftover from an unclean
                        // shutdown, safe to reclaim.
                        Err(_) => std::fs::remove_file(path)?,
                    }
                }
                (Listener::Unix(UnixListener::bind(path)?), Endpoint::Unix(path.clone()))
            }
        };
        Ok(TransportServer {
            listener,
            handle,
            stop: Arc::new(AtomicBool::new(false)),
            local,
            inject,
            admission: Arc::new(AdmissionController::new(AdmissionConfig::default())),
        })
    }

    /// The endpoint actually bound (ephemeral TCP port resolved).
    #[must_use]
    pub fn local_endpoint(&self) -> Endpoint {
        self.local.clone()
    }

    /// Handle for stopping or draining this server from another thread.
    #[must_use]
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: Arc::clone(&self.stop),
            ep: self.local.clone(),
            admission: Arc::clone(&self.admission),
        }
    }

    /// The admission controller (shed counters, drain books).
    #[must_use]
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    fn accept(&self) -> io::Result<Conn> {
        match &self.listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// Accepts and serves until stopped (or until `max_conns`
    /// connections have been accepted). Each connection gets its own
    /// handler thread; all handlers are joined before returning, so
    /// when `run` returns the server is fully quiescent. Returns the
    /// number of connections served.
    pub fn run(&self, max_conns: Option<u64>) -> io::Result<u64> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut accepted = 0u64;
        while !self.stop.load(Ordering::SeqCst) {
            // Reap handlers whose connections already hung up, so a
            // long-lived serve doesn't hold one JoinHandle (and its
            // thread's unreclaimed resources) per connection forever.
            let mut i = 0;
            while i < handlers.len() {
                if handlers[i].is_finished() {
                    let _ = handlers.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            if let Some(max) = max_conns {
                if accepted >= max {
                    break;
                }
            }
            let conn = match self.accept() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(e);
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                // The wake-up poke from StopHandle, not a client.
                break;
            }
            accepted += 1;
            let handle = Arc::clone(&self.handle);
            let stop = Arc::clone(&self.stop);
            let inject = self.inject.clone();
            let admission = Arc::clone(&self.admission);
            let conn_id = accepted;
            handlers.push(std::thread::spawn(move || {
                handle_conn(conn, &handle, &stop, inject.as_deref(), &admission, conn_id);
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(accepted)
    }

    /// `run` on a background thread; returns the join handle. The
    /// usual shape for tests and the soak storm:
    /// `let stop = srv.stop_handle(); let jh = srv.spawn(None); …
    /// stop.stop(); jh.join()`.
    pub fn spawn(self: Arc<Self>, max_conns: Option<u64>) -> std::thread::JoinHandle<io::Result<u64>> {
        std::thread::spawn(move || self.run(max_conns))
    }
}

impl Drop for TransportServer {
    fn drop(&mut self) {
        if let Endpoint::Unix(path) = &self.local {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Fills `buf` under an absolute deadline, polling the stop flag
/// between short socket timeouts. The budget covers the whole buffer,
/// not each read(2) — a peer trickling one byte per poll still runs
/// out of `deadline` — and a stopping server abandons the frame at the
/// next poll instead of waiting the stall out.
fn read_exact_deadline(
    conn: &mut Conn,
    buf: &mut [u8],
    deadline: Instant,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "server stopping mid-frame"));
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "frame deadline exceeded"));
        }
        let slice = (deadline - now).min(IDLE_POLL).max(Duration::from_millis(1));
        conn.set_read_timeout(Some(slice))?;
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-frame"))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame with stop-flag polling: waits for the first byte
/// under `IDLE_POLL` timeouts (checking `stop` between polls), then
/// holds the peer to an absolute `FRAME_TIMEOUT` deadline for the rest
/// of the frame. Returns `Ok(None)` on clean EOF before a frame
/// starts, or when stopped while idle.
fn read_frame_polled(conn: &mut Conn, stop: &AtomicBool) -> Result<Option<Message>, FrameError> {
    let mut first = [0u8; 1];
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        conn.set_read_timeout(Some(IDLE_POLL))?;
        match conn.read(&mut first) {
            Ok(0) => return Ok(None), // clean EOF between frames
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    // A frame has started: the *whole* frame must arrive before one
    // absolute deadline, no matter how many reads it takes.
    let deadline = Instant::now() + FRAME_TIMEOUT;
    let mut raw = [0u8; HEADER_LEN];
    raw[0] = first[0];
    read_exact_deadline(conn, &mut raw[1..], deadline, stop)?;
    let header = FrameHeader::parse(raw)?;
    let mut body = vec![0u8; header.payload_len as usize + 4];
    read_exact_deadline(conn, &mut body, deadline, stop)?;
    protocol::decode_frame(&header, &body).map(Some)
}

fn block_error(e: &ServerError) -> WireBlock {
    let kind = match e {
        ServerError::OutOfRange { .. } => BlockErrorKind::OutOfRange,
        _ if e.is_corruption() => BlockErrorKind::Corruption,
        _ => BlockErrorKind::Io,
    };
    WireBlock::Error { kind, message: protocol::clamp_block_error_message(e.to_string()) }
}

/// The structured refusal for a shed request: reason plus retry-after
/// hint, answering `request_id` (0 for requests that carry no id).
fn overloaded(
    request_id: u64,
    cause: crate::admission::ShedCause,
    retry_after: Duration,
) -> Message {
    Message::Overloaded(Overloaded {
        request_id,
        reason: cause.reason(),
        retry_after_ms: u32::try_from(retry_after.as_millis()).unwrap_or(u32::MAX),
    })
}

/// Request key for the overload injector: order-sensitive fold of the
/// id list, so "the same batch retried" maps to the same seeded
/// decision sequence.
fn request_key(ids: &[u64]) -> u64 {
    let mut k = 0x9E37_79B9_7F4A_7C15;
    for &id in ids {
        k = durable::retry::splitmix64(k ^ id.wrapping_add(1));
    }
    k
}

/// Serves one read request through admission control. Returns the
/// reply plus the permit still held (dropped by the caller *after* the
/// response is written, so drain accounting covers the write).
fn serve_read<'a>(
    rq: &ReadRequest,
    handle: &ServerHandle,
    admission: &'a AdmissionController,
    inject: Option<&InjectedLoad>,
    batch_cap: usize,
    geometry: pastri::BlockGeometry,
    conn_id: u64,
) -> (Message, Option<Permit<'a>>) {
    telemetry::counter_add("rpc.requests", 1);
    let served_at = Instant::now();
    let _span = telemetry::span("rpc.request");
    if rq.ids.len() > batch_cap {
        // The worst-case response would blow the frame cap: degrade to
        // per-block errors (explained once, in the first slot — an
        // all-messages response for a maximal request would itself
        // blow the cap) instead of encoding an oversized frame the
        // client would have to reject as corrupt.
        let blocks = (0..rq.ids.len())
            .map(|i| WireBlock::Error {
                kind: BlockErrorKind::Io,
                message: if i == 0 {
                    format!(
                        "batch of {} blocks exceeds the {batch_cap}-block \
                         frame budget; split the request",
                        rq.ids.len()
                    )
                } else {
                    String::new()
                },
            })
            .collect();
        return (Message::ReadResponse(ReadResponse { request_id: rq.request_id, blocks }), None);
    }
    if let Some(load) = inject {
        if load.shed {
            admission.record_injected_shed();
            return (
                overloaded(rq.request_id, crate::admission::ShedCause::Injected, load.retry_after),
                None,
            );
        }
    }
    // Worst-case bytes this response may pin while in flight.
    let bytes = protocol::max_read_response_len(rq.ids.len(), geometry);
    let budget = Duration::from_millis(u64::from(rq.budget_ms));
    let permit = match admission.admit(conn_id, budget, bytes, 0) {
        Admission::Admitted(p) => p,
        Admission::Shed { cause, retry_after } => {
            return (overloaded(rq.request_id, cause, retry_after), None)
        }
    };
    if let Some(load) = inject {
        if !load.delay.is_zero() {
            // Slow-handler injection: burn service time while holding
            // the permit, exactly what real store latency does.
            std::thread::sleep(load.delay);
        }
    }
    let ids: Vec<usize> = rq.ids.iter().map(|&id| id as usize).collect();
    let blocks = handle
        .read_blocks_each(&ids)
        .into_iter()
        .map(|r| match r {
            Ok(frame) => WireBlock::Frame(frame.to_vec()),
            Err(e) => block_error(&e),
        })
        .collect();
    let elapsed = served_at.elapsed();
    if elapsed >= SLOW_REQUEST {
        telemetry::journal(
            "rpc.slow",
            rq.request_id,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        );
    }
    (Message::ReadResponse(ReadResponse { request_id: rq.request_id, blocks }), Some(permit))
}

fn handle_conn(
    mut conn: Conn,
    handle: &ServerHandle,
    stop: &AtomicBool,
    inject: Option<&dyn OverloadInject>,
    admission: &AdmissionController,
    conn_id: u64,
) {
    let geom = handle.geometry();
    // The largest batch whose worst-case response still fits one frame;
    // conforming clients chunk to the same bound.
    let batch_cap = protocol::max_ids_per_read(geom, protocol::MAX_FRAME_PAYLOAD as usize);
    let hello = Message::Hello(Hello {
        version: PROTO_VERSION,
        num_blocks: handle.num_blocks() as u64,
        num_subblocks: geom.num_subblocks as u32,
        subblock_size: geom.subblock_size as u32,
        error_bound: handle.error_bound(),
    });
    if conn.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || protocol::write_frame(&mut conn, &hello).is_err()
        || conn.flush().is_err()
    {
        return;
    }
    // Injector attempt counters: how many times this connection has
    // presented each request key (pure per-connection state, so seeded
    // decisions stay deterministic per client).
    let mut inject_attempts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    loop {
        let msg = match read_frame_polled(&mut conn, stop) {
            Ok(Some(m)) => m,
            Ok(None) => return,
            Err(e) => {
                if e.is_corrupt_frame() {
                    // A corrupt inbound frame means the stream is not
                    // trustworthy past this point: count it and drop
                    // the connection so the client resynchronizes by
                    // reconnecting.
                    telemetry::counter_add("rpc.frame_errors", 1);
                }
                return;
            }
        };
        let (reply, permit) = match msg {
            Message::ReadRequest(rq) => {
                // Adopt the client's trace context for the whole serve:
                // every span/journal entry recorded on this thread while
                // the guard lives carries the originating trace id. A
                // zero trace id means "untraced" — adopt nothing.
                let _trace = (rq.trace_id != 0).then(|| {
                    telemetry::push_trace(TraceContext { trace_id: rq.trace_id, span_id: rq.span_id })
                });
                let load = inject.map(|i| {
                    let key = request_key(&rq.ids);
                    let attempt = inject_attempts.entry(key).or_insert(0);
                    let decision = i.decide(key, *attempt);
                    *attempt += 1;
                    decision
                });
                serve_read(
                    &rq,
                    handle,
                    admission,
                    load.as_ref(),
                    batch_cap,
                    geom,
                    conn_id,
                )
            }
            Message::TelemetryRequest => {
                // A live scrape of the full recorder. Admitted at
                // priority 1 so dashboards keep reading while priority-0
                // traffic sheds; hard limits (queue full, draining)
                // still apply and surface as Overloaded.
                let bytes = telemetry::export::json_lines(&telemetry::snapshot()).into_bytes();
                match admission.admit(conn_id, Duration::from_secs(60), bytes.len(), 1) {
                    Admission::Admitted(p) => {
                        telemetry::counter_add("server.scrapes", 1);
                        (Message::TelemetryResponse(bytes), Some(p))
                    }
                    Admission::Shed { cause, retry_after } => {
                        (overloaded(0, cause, retry_after), None)
                    }
                }
            }
            // Only clients send these; a peer that does is broken.
            Message::Hello(_)
            | Message::ReadResponse(_)
            | Message::Overloaded(_)
            | Message::TelemetryResponse(_) => return,
        };
        let wrote =
            protocol::write_frame(&mut conn, &reply).is_ok() && conn.flush().is_ok();
        // The permit spans the response write: "admitted" means the
        // reply left the server, so drain can never cut one off.
        drop(permit);
        if !wrote {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_specs_parse_both_families() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("no-port").is_err());
        // Round-trips through Display.
        for spec in ["tcp:127.0.0.1:7070", "unix:/tmp/x.sock"] {
            let ep = Endpoint::parse(spec).unwrap();
            assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
        }
    }
}
