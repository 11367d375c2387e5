//! Remote client for the PTRF transport: deadlines, bounded
//! seeded-jitter retry, and hedged failover across replica mounts.
//!
//! The failure model (DESIGN §13) distinguishes three layers:
//!
//! * **Connection faults** — refused/reset/EOF/timeout. Always safe to
//!   retry: block reads are idempotent, and every retry starts from a
//!   fresh connection (a failed stream is never reused, because a
//!   half-read frame leaves it desynchronized).
//! * **Frame corruption** — CRC/magic/length violations. Counted as
//!   `rpc.frame_errors`, then handled exactly like a connection fault:
//!   reconnect and retry until the budget runs out, at which point the
//!   caller gets [`ClientError::Frame`] (the CLI maps it to exit 2 —
//!   the bytes were damaged, not merely unavailable).
//! * **Per-block errors** — structured statuses inside an intact
//!   response, and frames that fail the client's own decode. *Not*
//!   retried here: the server already ran its own repair-on-read and
//!   retry policy against the store; a corrupt block is a property of
//!   the artifact, not of this connection.
//!
//! The server sends each block as its stored PaSTRI frame; the client
//! decodes a response's frames in one [`pastri::decompress_blocks`]
//! call at the geometry and error bound the `Hello` announced, which no
//! frame repeats. A frame that does not parse exactly or whose CRC fails
//! is refused before anything is allocated for it, and no frame costs
//! more than one block's values, so a broken or hostile server costs at
//! most that per slot, and the failure is a
//! [`BlockErrorKind::Corruption`] at that slot's position.
//!
//! Retries draw their backoff from [`durable::retry::RetryPolicy`] —
//! the same bounded exponential + seeded half-range jitter the store
//! reader uses — so a storm of clients with distinct seeds decorrelates
//! deterministically. When more than one replica endpoint is
//! configured, every retry also *hedges*: it moves to the next replica
//! in round-robin order (counted in `rpc.hedges`), so a dead or
//! stalling replica costs one attempt, not the whole deadline.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use durable::retry::RetryPolicy;
use pastri::BlockGeometry;

use crate::breaker::{Breaker, BreakerConfig, BreakerState, Transition};
use crate::protocol::{
    self, FrameError, Hello, Message, OverloadReason, ReadRequest, WireBlock, PROTO_VERSION,
};
pub use crate::protocol::BlockErrorKind;
use crate::transport::{Conn, Endpoint};

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Whole-call budget for one `read_blocks` / `server_telemetry`,
    /// covering every retry, backoff sleep, and reconnect within it.
    pub deadline: Duration,
    /// Budget for one attempt's socket reads/writes (further capped by
    /// the remaining deadline). Strictly smaller than `deadline` or a
    /// single stalled replica eats the whole call with no budget left
    /// to retry or hedge.
    pub attempt_timeout: Duration,
    /// Budget for establishing one TCP connection (further capped by
    /// the remaining deadline).
    pub connect_timeout: Duration,
    /// Retry/backoff schedule (attempt budget = `max_retries`).
    pub retry: RetryPolicy,
    /// Response-size budget one exchange may provision for:
    /// `read_blocks` splits its id list into batches whose worst-case
    /// `ReadResponse` fits this many payload bytes (always further
    /// clamped to the protocol's hard `MAX_FRAME_PAYLOAD`), so a
    /// whole-store fetch can never provoke a frame either side would
    /// reject as oversized. Lower it to trade per-exchange latency for
    /// memory; tests shrink it to force chunking on small data.
    pub max_response_bytes: usize,
    /// Per-endpoint circuit breaker (`None` disables gating entirely —
    /// the wire-fault storm runs without it so its tallies stay
    /// byte-identical to the PR-8 baseline). When set, an endpoint
    /// whose rolling failure window fills is refused traffic for the
    /// cooldown, then probed half-open.
    pub breaker: Option<BreakerConfig>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline: Duration::from_secs(5),
            attempt_timeout: Duration::from_secs(1),
            connect_timeout: Duration::from_secs(1),
            retry: RetryPolicy::default(),
            max_response_bytes: protocol::MAX_FRAME_PAYLOAD as usize,
            breaker: Some(BreakerConfig::default()),
        }
    }
}

/// One block that could not be served, with the server's structured
/// classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockError {
    /// Global block id.
    pub block: u64,
    pub kind: BlockErrorKind,
    pub message: String,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block {} [{}]: {}", self.block, self.kind, self.message)
    }
}

/// Why a whole call failed (per-block failures surface as
/// [`BlockError`] instead, leaving sibling blocks intact).
#[derive(Debug)]
pub enum ClientError {
    /// Connection-level failure that outlived the retry budget.
    Io(io::Error),
    /// The whole-call deadline elapsed (covers stalls past deadline).
    DeadlineExceeded { elapsed: Duration },
    /// Frame corruption that outlived the retry budget.
    Frame(String),
    /// The peer spoke the protocol wrong (version/geometry mismatch,
    /// response to a request never sent).
    Protocol(String),
    /// The server shed or refused the request (admission control or
    /// drain) past the retry budget: the service was *unavailable*,
    /// not corrupt — exit 1, never exit 2.
    Overloaded { reason: OverloadReason, retry_after: Duration },
    /// Strict-mode wrapper for the first per-block error in a batch.
    Block(BlockError),
    /// Client misconfiguration (e.g. no replicas).
    Config(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport i/o: {e}"),
            ClientError::DeadlineExceeded { elapsed } => {
                write!(f, "deadline exceeded after {:.1} ms", elapsed.as_secs_f64() * 1e3)
            }
            ClientError::Frame(msg) => write!(f, "corrupt frame: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Overloaded { reason, retry_after } => write!(
                f,
                "server {reason}: retry after {:.0} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            ClientError::Block(b) => write!(f, "{b}"),
            ClientError::Config(msg) => write!(f, "client config: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Exit-2 classification, mirroring `ServerError::is_corruption`:
    /// damaged bytes (frames or stored blocks) are the artifact's
    /// fault; refused connections and blown deadlines are exit 1.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        match self {
            ClientError::Frame(_) => true,
            ClientError::Block(b) => b.kind == BlockErrorKind::Corruption,
            _ => false,
        }
    }
}

/// Client-side recovery counters (also mirrored into the `rpc.*`
/// telemetry names when the recorder is enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Calls that completed successfully.
    pub requests: u64,
    /// Re-attempts after a failed attempt (any cause).
    pub retries: u64,
    /// Re-attempts that switched to another replica.
    pub hedges: u64,
    /// Calls abandoned at the whole-call deadline.
    pub deadline_exceeded: u64,
    /// Corrupt frames detected (each also forced a reconnect).
    pub frame_errors: u64,
    /// `Overloaded` refusals received (shed or draining).
    pub overloaded: u64,
    /// Breaker transitions observed, by kind.
    pub breaker_opened: u64,
    pub breaker_half_opened: u64,
    pub breaker_closed: u64,
}

/// What one attempt can fail with (classified for retry accounting).
enum AttemptError {
    Io(io::Error),
    Timeout,
    CorruptFrame(String),
    Protocol(String),
    /// Structured refusal: the frame arrived intact, the stream stays
    /// in sync, and the connection is still good — back off instead of
    /// reconnecting.
    Overloaded { reason: OverloadReason, retry_after: Duration },
}

impl AttemptError {
    fn from_frame(e: FrameError) -> Self {
        match e {
            FrameError::Io(ioe) => AttemptError::from_io(ioe),
            other => AttemptError::CorruptFrame(other.to_string()),
        }
    }

    fn from_io(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => AttemptError::Timeout,
            _ => AttemptError::Io(e),
        }
    }
}

/// A connected, failover-capable client over one or more replica
/// endpoints serving the *same* dataset (enforced via `Hello`).
pub struct RemoteClient {
    replicas: Vec<Endpoint>,
    cfg: ClientConfig,
    conns: Vec<Option<Conn>>,
    hello: Hello,
    /// Replica index new calls start at (sticky: moves on failover).
    primary: usize,
    next_request_id: u64,
    stats: ClientStats,
    /// One breaker per replica endpoint (empty slots when disabled).
    breakers: Vec<Option<Breaker>>,
    /// Clock anchor for breaker timestamps (µs since connect).
    epoch: Instant,
}

impl RemoteClient {
    /// Connects to the first reachable replica and records its
    /// [`Hello`]; every replica connected later must present an
    /// identical identity (same block count, geometry, error bound) or
    /// it is rejected as a protocol violation.
    pub fn connect(replicas: &[Endpoint], cfg: ClientConfig) -> Result<Self, ClientError> {
        if replicas.is_empty() {
            return Err(ClientError::Config("no replica endpoints".into()));
        }
        // The handshake gets the same bounded retry discipline as block
        // reads: a transient reset while connecting is a connection
        // fault, not a verdict on the replica set.
        let start = Instant::now();
        let mut last: Option<AttemptError> = None;
        let mut retries = 0u64;
        for attempt in 0..=cfg.retry.max_retries {
            for (i, ep) in replicas.iter().enumerate() {
                let Some(remaining) = cfg.deadline.checked_sub(start.elapsed()) else { break };
                match open_conn(ep, &cfg, remaining) {
                    Ok((conn, hello)) => {
                        let mut conns: Vec<Option<Conn>> =
                            (0..replicas.len()).map(|_| None).collect();
                        conns[i] = Some(conn);
                        let breakers = (0..replicas.len())
                            .map(|_| cfg.breaker.clone().map(Breaker::new))
                            .collect();
                        return Ok(RemoteClient {
                            replicas: replicas.to_vec(),
                            cfg,
                            conns,
                            hello,
                            primary: i,
                            next_request_id: 1,
                            stats: ClientStats { retries, ..ClientStats::default() },
                            breakers,
                            epoch: start,
                        });
                    }
                    Err(e) => {
                        last = Some(e);
                        retries += 1;
                        telemetry::counter_add("rpc.retries", 1);
                    }
                }
            }
            let Some(remaining) = cfg.deadline.checked_sub(start.elapsed()) else { break };
            let backoff = cfg.retry.backoff_for(attempt).min(remaining);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        Err(match last {
            // Deadline elapsed before any attempt ran (e.g. a zero
            // deadline): still a structured error, never a panic.
            None => ClientError::DeadlineExceeded { elapsed: start.elapsed() },
            Some(AttemptError::Io(e)) => ClientError::Io(e),
            Some(AttemptError::Timeout) => {
                ClientError::Io(io::Error::new(io::ErrorKind::TimedOut, "connect timed out"))
            }
            Some(AttemptError::CorruptFrame(msg)) => ClientError::Frame(msg),
            Some(AttemptError::Protocol(msg)) => ClientError::Protocol(msg),
            Some(AttemptError::Overloaded { reason, retry_after }) => {
                ClientError::Overloaded { reason, retry_after }
            }
        })
    }

    /// The server identity from the handshake.
    #[must_use]
    pub fn hello(&self) -> Hello {
        self.hello
    }

    /// Total blocks the mounted dataset serves.
    #[must_use]
    pub fn num_blocks(&self) -> u64 {
        self.hello.num_blocks
    }

    /// Client-side recovery counters so far.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Current breaker state per replica endpoint (`None` when the
    /// breaker is disabled for that slot).
    #[must_use]
    pub fn breaker_states(&self) -> Vec<(Endpoint, Option<BreakerState>)> {
        self.replicas
            .iter()
            .cloned()
            .zip(self.breakers.iter().map(|b| b.as_ref().map(Breaker::state)))
            .collect()
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn tally_transition(&mut self, t: Transition) {
        match t {
            Transition::Opened => {
                self.stats.breaker_opened += 1;
                telemetry::counter_add("rpc.breaker_opened", 1);
                telemetry::journal("breaker.opened", 0, 0);
            }
            Transition::HalfOpened => {
                self.stats.breaker_half_opened += 1;
                telemetry::counter_add("rpc.breaker_half_opened", 1);
                telemetry::journal("breaker.half_open", 0, 0);
            }
            Transition::Closed => {
                self.stats.breaker_closed += 1;
                telemetry::counter_add("rpc.breaker_closed", 1);
                telemetry::journal("breaker.closed", 0, 0);
            }
        }
    }

    /// Reads a batch of blocks. Per-block failures come back as
    /// structured [`BlockError`]s in their own positions — degraded,
    /// not dead. Whole-call failures (deadline, retry budget) are the
    /// `Err` side.
    ///
    /// Large id lists are split into chunks whose worst-case response
    /// fits one frame under `max_response_bytes` (and the protocol's
    /// hard cap), each chunk its own request/response exchange with its
    /// own `deadline` — so fetching a whole store never asks the
    /// server for a frame the protocol would reject as oversized.
    pub fn read_blocks(
        &mut self,
        ids: &[u64],
    ) -> Result<Vec<Result<Vec<f64>, BlockError>>, ClientError> {
        let geometry = self.geometry();
        let per_batch = protocol::max_ids_per_read(geometry, self.cfg.max_response_bytes);
        if per_batch == 0 {
            return Err(ClientError::Config(format!(
                "blocks of {} values cannot fit one per frame under {} payload bytes",
                geometry.block_size(),
                self.cfg.max_response_bytes.min(protocol::MAX_FRAME_PAYLOAD as usize)
            )));
        }
        let mut out = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(per_batch) {
            out.extend(self.read_batch(chunk)?);
        }
        Ok(out)
    }

    /// The served block geometry (`open_conn` refused a `Hello` with a
    /// zero dimension).
    fn geometry(&self) -> BlockGeometry {
        BlockGeometry::new(self.hello.num_subblocks as usize, self.hello.subblock_size as usize)
    }

    /// One request/response exchange for a batch already sized to fit
    /// the frame budget, each block's frame decoded at its own position.
    fn read_batch(
        &mut self,
        ids: &[u64],
    ) -> Result<Vec<Result<Vec<f64>, BlockError>>, ClientError> {
        let rq_ids = ids.to_vec();
        // Trace propagation: every attempt of this logical request
        // carries the same context — the ambient one when the caller
        // opened a trace (the CLI does, around a whole fetch), or a
        // fresh seeded id so nothing on the wire is untraced.
        let trace = telemetry::current_trace().unwrap_or_else(telemetry::new_trace);
        let reply = self.roundtrip(&mut |request_id, remaining| {
            // Deadline propagation: the server sees how much budget
            // this attempt actually has left, so its admission queue
            // can shed instead of serving a reply nobody will wait for.
            Message::ReadRequest(ReadRequest {
                request_id,
                budget_ms: u32::try_from(remaining.as_millis()).unwrap_or(u32::MAX),
                trace_id: trace.trace_id,
                span_id: trace.span_id,
                ids: rq_ids.clone(),
            })
        })?;
        let rs = match reply {
            Message::ReadResponse(rs) => rs,
            other => {
                return Err(ClientError::Protocol(format!("unexpected reply {:?}", kind_of(&other))))
            }
        };
        if rs.blocks.len() != ids.len() {
            return Err(ClientError::Protocol(format!(
                "response has {} blocks for {} requested",
                rs.blocks.len(),
                ids.len()
            )));
        }
        // Every served frame decodes in one call, which pairs their
        // Dense streams.
        let frames: Vec<&[u8]> = rs
            .blocks
            .iter()
            .filter_map(|b| match b {
                WireBlock::Frame(f) => Some(f.as_slice()),
                WireBlock::Error { .. } => None,
            })
            .collect();
        let mut decoded =
            pastri::decompress_blocks(&frames, self.geometry(), self.hello.error_bound)
                .into_iter();
        Ok(rs
            .blocks
            .into_iter()
            .zip(ids)
            .map(|(b, &id)| match b {
                WireBlock::Frame(_) => {
                    decoded.next().expect("one result per frame").map_err(|e| BlockError {
                        block: id,
                        kind: BlockErrorKind::Corruption,
                        message: format!("served frame: {e}"),
                    })
                }
                WireBlock::Error { kind, message } => {
                    Err(BlockError { block: id, kind, message })
                }
            })
            .collect())
    }

    /// [`RemoteClient::read_blocks`] that fails the whole call on the
    /// first per-block error — the CLI's strict mode.
    pub fn read_blocks_strict(&mut self, ids: &[u64]) -> Result<Vec<Vec<f64>>, ClientError> {
        self.read_blocks(ids)?
            .into_iter()
            .map(|r| r.map_err(ClientError::Block))
            .collect()
    }

    /// Scrapes the server's full telemetry snapshot — counters, gauges,
    /// complete histograms, and the event journal — as the line-JSON
    /// export bytes ([`telemetry::export::from_json_lines`] decodes
    /// them). The scrape rides admission at priority 1 server-side so
    /// it survives overload.
    pub fn server_telemetry(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.roundtrip(&mut |_, _| Message::TelemetryRequest)? {
            Message::TelemetryResponse(bytes) => Ok(bytes),
            other => Err(ClientError::Protocol(format!("unexpected reply {:?}", kind_of(&other)))),
        }
    }

    /// The deadline/retry/hedge state machine shared by every call.
    /// `make` receives the request id and the budget remaining at send
    /// time (for deadline propagation).
    fn roundtrip(
        &mut self,
        make: &mut dyn FnMut(u64, Duration) -> Message,
    ) -> Result<Message, ClientError> {
        let start = Instant::now();
        let mut attempt = 0u32;
        let mut replica = self.primary;
        let mut last: Option<AttemptError> = None;
        loop {
            let elapsed = start.elapsed();
            let Some(remaining) = self.cfg.deadline.checked_sub(elapsed) else {
                self.stats.deadline_exceeded += 1;
                telemetry::counter_add("rpc.deadline_exceeded", 1);
                // A timeout that exhausted the budget is the deadline
                // story regardless of what the last attempt died of —
                // unless the last thing we saw was corruption (which
                // outranks everything for exit classification) or a
                // structured refusal (the shed is the story: "the
                // server told us to go away", never a silent timeout).
                match last {
                    Some(AttemptError::CorruptFrame(msg)) => return Err(ClientError::Frame(msg)),
                    Some(AttemptError::Overloaded { reason, retry_after }) => {
                        return Err(ClientError::Overloaded { reason, retry_after })
                    }
                    _ => return Err(ClientError::DeadlineExceeded { elapsed }),
                }
            };
            // Breaker gate: skip endpoints whose breaker is open,
            // preferring the first allowed replica in failover order;
            // when every breaker is open, sleep until the soonest
            // probe window (bounded by the deadline, which stays the
            // final arbiter).
            if self.breakers.iter().any(Option::is_some) {
                let now = self.now_us();
                let n = self.replicas.len();
                let mut admitted = None;
                let mut transitions = Vec::new();
                for off in 0..n {
                    let r = (replica + off) % n;
                    let ok = match self.breakers[r].as_mut() {
                        None => true,
                        Some(b) => {
                            let (ok, tr) = b.allow(now);
                            transitions.extend(tr);
                            ok
                        }
                    };
                    if ok {
                        admitted = Some(r);
                        break;
                    }
                }
                for t in transitions {
                    self.tally_transition(t);
                }
                match admitted {
                    Some(r) => {
                        if r != replica {
                            // Breaker-driven failover is a hedge: the
                            // attempt moved to another replica.
                            self.stats.hedges += 1;
                            telemetry::counter_add("rpc.hedges", 1);
                            telemetry::journal("rpc.hedge", self.next_request_id, r as u64);
                            replica = r;
                        }
                    }
                    None => {
                        let wait_us = self
                            .breakers
                            .iter()
                            .flatten()
                            .map(|b| b.retry_in_us(now))
                            .min()
                            .unwrap_or(0);
                        let wait =
                            Duration::from_micros(wait_us.max(1000)).min(remaining);
                        std::thread::sleep(wait);
                        continue;
                    }
                }
            }
            let request_id = self.next_request_id;
            self.next_request_id += 1;
            let attempt_start = Instant::now();
            let result = self.try_once(replica, remaining, &make(request_id, remaining), request_id);
            let now = self.now_us();
            if let Some(b) = self.breakers[replica].as_mut() {
                if let Some(t) = b.record(result.is_ok(), now) {
                    self.tally_transition(t);
                }
            }
            match result {
                Ok(reply) => {
                    let rtt = attempt_start.elapsed().as_micros() as u64;
                    telemetry::observe_us("rpc.rtt_us", rtt);
                    self.stats.requests += 1;
                    self.primary = replica;
                    return Ok(reply);
                }
                Err(e) => {
                    let overloaded = matches!(e, AttemptError::Overloaded { .. });
                    if overloaded {
                        // The refusal arrived as an intact frame: the
                        // stream is in sync and the connection stays
                        // usable for the retry after backoff.
                        self.stats.overloaded += 1;
                        telemetry::counter_add("rpc.overloaded", 1);
                    } else {
                        // A failed attempt leaves the stream in an
                        // unknown state; never reuse it.
                        if let Some(c) = self.conns[replica].take() {
                            let _ = c.shutdown();
                        }
                    }
                    if let AttemptError::CorruptFrame(_) = &e {
                        self.stats.frame_errors += 1;
                        telemetry::counter_add("rpc.frame_errors", 1);
                    }
                    if attempt >= self.cfg.retry.max_retries {
                        self.stats.deadline_exceeded +=
                            u64::from(matches!(e, AttemptError::Timeout));
                        if matches!(e, AttemptError::Timeout) {
                            telemetry::counter_add("rpc.deadline_exceeded", 1);
                        }
                        return Err(match e {
                            AttemptError::Io(ioe) => ClientError::Io(ioe),
                            AttemptError::Timeout => {
                                ClientError::DeadlineExceeded { elapsed: start.elapsed() }
                            }
                            AttemptError::CorruptFrame(msg) => ClientError::Frame(msg),
                            AttemptError::Protocol(msg) => ClientError::Protocol(msg),
                            AttemptError::Overloaded { reason, retry_after } => {
                                ClientError::Overloaded { reason, retry_after }
                            }
                        });
                    }
                    self.stats.retries += 1;
                    telemetry::counter_add("rpc.retries", 1);
                    telemetry::journal("rpc.retry", request_id, u64::from(attempt));
                    if self.replicas.len() > 1 {
                        replica = (replica + 1) % self.replicas.len();
                        self.stats.hedges += 1;
                        telemetry::counter_add("rpc.hedges", 1);
                        telemetry::journal("rpc.hedge", request_id, replica as u64);
                    }
                    // An Overloaded refusal carries the server's own
                    // backoff hint; honor whichever is longer so a
                    // shedding server isn't hammered at the client's
                    // ordinary retry cadence.
                    let mut backoff = self.cfg.retry.backoff_for(attempt);
                    if let AttemptError::Overloaded { retry_after, .. } = &e {
                        backoff = backoff.max(*retry_after);
                    }
                    let backoff = backoff.min(remaining);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    last = Some(e);
                    attempt += 1;
                }
            }
        }
    }

    /// One attempt against one replica within `remaining` budget.
    fn try_once(
        &mut self,
        replica: usize,
        remaining: Duration,
        msg: &Message,
        request_id: u64,
    ) -> Result<Message, AttemptError> {
        let budget = self.cfg.attempt_timeout.min(remaining).max(Duration::from_millis(1));
        if self.conns[replica].is_none() {
            let (conn, hello) = open_conn(&self.replicas[replica], &self.cfg, budget)?;
            if hello != self.hello {
                return Err(AttemptError::Protocol(format!(
                    "replica {} serves a different dataset ({} blocks vs {})",
                    self.replicas[replica], hello.num_blocks, self.hello.num_blocks
                )));
            }
            self.conns[replica] = Some(conn);
        }
        let Some(conn) = self.conns[replica].as_mut() else {
            // Unreachable by construction (the slot was just filled),
            // but a structured error beats a panic on a serving path.
            return Err(AttemptError::Protocol("connection slot empty after connect".into()));
        };
        conn.set_write_timeout(Some(budget)).map_err(AttemptError::from_io)?;
        conn.set_read_timeout(Some(budget)).map_err(AttemptError::from_io)?;
        protocol::write_frame(conn, msg).map_err(AttemptError::from_io)?;
        conn.flush().map_err(AttemptError::from_io)?;
        let reply = protocol::read_frame(conn).map_err(AttemptError::from_frame)?;
        if let Message::ReadResponse(rs) = &reply {
            if rs.request_id != request_id {
                // Can only happen if the stream desynchronized; treat
                // like corruption so it forces a clean reconnect.
                return Err(AttemptError::CorruptFrame(format!(
                    "response id {} for request {}",
                    rs.request_id, request_id
                )));
            }
        }
        if let Message::Overloaded(o) = &reply {
            // id 0 is the wildcard for requests that carry no id of
            // their own (telemetry scrapes shed under admission).
            if o.request_id != 0 && o.request_id != request_id {
                return Err(AttemptError::CorruptFrame(format!(
                    "overloaded reply id {} for request {}",
                    o.request_id, request_id
                )));
            }
            return Err(AttemptError::Overloaded {
                reason: o.reason,
                retry_after: Duration::from_millis(u64::from(o.retry_after_ms)),
            });
        }
        Ok(reply)
    }
}

fn kind_of(msg: &Message) -> &'static str {
    match msg {
        Message::Hello(_) => "Hello",
        Message::ReadRequest(_) => "ReadRequest",
        Message::ReadResponse(_) => "ReadResponse",
        Message::Overloaded(_) => "Overloaded",
        Message::TelemetryRequest => "TelemetryRequest",
        Message::TelemetryResponse(_) => "TelemetryResponse",
    }
}

/// Connects and runs the handshake: the server speaks first with its
/// `Hello` frame.
fn open_conn(
    ep: &Endpoint,
    cfg: &ClientConfig,
    remaining: Duration,
) -> Result<(Conn, Hello), AttemptError> {
    let connect_budget = cfg.connect_timeout.min(remaining).max(Duration::from_millis(1));
    let mut conn = Conn::connect(ep, connect_budget).map_err(AttemptError::from_io)?;
    conn.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
        .map_err(AttemptError::from_io)?;
    let hello = match protocol::read_frame(&mut conn).map_err(AttemptError::from_frame)? {
        Message::Hello(h) => h,
        other => {
            return Err(AttemptError::Protocol(format!(
                "expected Hello, got {:?}",
                kind_of(&other)
            )))
        }
    };
    // One wire version: any other is refused, never downgraded to.
    if hello.version != PROTO_VERSION {
        return Err(AttemptError::Protocol(format!(
            "server speaks protocol version {}, client speaks {PROTO_VERSION}",
            hello.version
        )));
    }
    if hello.num_subblocks == 0 || hello.subblock_size == 0 {
        return Err(AttemptError::Protocol(format!(
            "server announces a degenerate {}x{} block geometry",
            hello.num_subblocks, hello.subblock_size
        )));
    }
    // Frames carry no bound of their own: this one decodes every block.
    if !(hello.error_bound.is_finite() && hello.error_bound > 0.0) {
        return Err(AttemptError::Protocol(format!(
            "server announces an invalid error bound {}",
            hello.error_bound
        )));
    }
    Ok((conn, hello))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReadResponse;

    #[test]
    fn damaged_frame_is_corruption_at_its_position_only() {
        // A server whose second slot carries a frame with a flipped
        // payload bit, and whose third carries one whose length varint
        // claims u64::MAX bytes: the client refuses each as corruption
        // at its own position, before allocating for it, and still
        // serves the slots around them.
        let geom = BlockGeometry::new(4, 32);
        let eb = 1e-10;
        let blocks: Vec<Vec<f64>> = (0..4)
            .map(|b| (0..128).map(|i| ((i + 7 * b) as f64 * 0.21).sin() * 1e-6).collect())
            .collect();
        let compressor = pastri::Compressor::new(geom, eb);
        let mut served: Vec<Vec<u8>> =
            blocks.iter().map(|b| compressor.compress_block(b)).collect();
        *served[1].last_mut().unwrap() ^= 0x10;
        let payload_at = served[2].iter().position(|&b| b < 0x80).unwrap() + 1;
        served[2].splice(..payload_at, [0xFF; 9].into_iter().chain([0x01]));

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = Conn::Tcp(stream);
            let hello = Hello {
                version: PROTO_VERSION,
                num_blocks: 4,
                num_subblocks: 4,
                subblock_size: 32,
                error_bound: eb,
            };
            protocol::write_frame(&mut conn, &Message::Hello(hello)).unwrap();
            conn.flush().unwrap();
            let Ok(Message::ReadRequest(rq)) = protocol::read_frame(&mut conn) else {
                panic!("want a read request")
            };
            let blocks = rq.ids.iter().map(|&id| WireBlock::Frame(served[id as usize].clone()));
            let reply = ReadResponse { request_id: rq.request_id, blocks: blocks.collect() };
            protocol::write_frame(&mut conn, &Message::ReadResponse(reply)).unwrap();
            conn.flush().unwrap();
        });

        let ep = Endpoint::parse(&format!("tcp:{addr}")).unwrap();
        let mut client = RemoteClient::connect(&[ep], ClientConfig::default()).unwrap();
        let got = client.read_blocks(&[0, 1, 2, 3]).unwrap();
        server.join().unwrap();
        for pos in [1, 2] {
            let err = got[pos].as_ref().unwrap_err();
            assert_eq!((err.block, err.kind), (pos as u64, BlockErrorKind::Corruption), "{err}");
        }
        for pos in [0, 3] {
            let values = got[pos].as_ref().unwrap();
            assert_eq!(values.len(), 128);
            assert!(values.iter().zip(&blocks[pos]).all(|(a, b)| (a - b).abs() <= eb));
        }
        assert_eq!(client.stats().retries, 0, "a bad frame is not a connection fault");
    }

    #[test]
    fn zero_deadline_connect_errors_instead_of_panicking() {
        // A deadline that elapses before the first attempt must come
        // back as a structured error (the old code hit an expect() on
        // the never-filled `last` attempt error).
        let cfg = ClientConfig { deadline: Duration::ZERO, ..ClientConfig::default() };
        let ep = Endpoint::parse("tcp:127.0.0.1:9").unwrap();
        let err = match RemoteClient::connect(&[ep], cfg) {
            Ok(_) => panic!("zero-deadline connect cannot succeed"),
            Err(e) => e,
        };
        assert!(matches!(err, ClientError::DeadlineExceeded { .. }), "{err}");
    }
}
