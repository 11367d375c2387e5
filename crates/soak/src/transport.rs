//! Client/server transport storm: many concurrent [`RemoteClient`]s
//! hammer replicated [`TransportServer`]s through seeded
//! [`FaultyProxy`]s injecting every wire fault class, with zero-loss
//! accounting and end-of-run SLO gates over the clients' own books and
//! the `rpc.*` / `server.*` latency telemetry.
//!
//! Determinism contract, mirroring the main soak storm: the request
//! plan (which client reads which blocks in which batch) is a pure
//! function of the seed, so `requests_planned`, `blocks_requested`,
//! `blocks_served`, and `value_sig` in [`TransportTallies`] are
//! bit-identical for a fixed seed at any thread count — every block
//! must come back byte-identical to a direct [`StoreReader`] read or
//! the run charges data loss. What the storm had to *do* to get there
//! (retries, hedges, frame errors, which connections the proxy hit) is
//! timing-dependent and reported separately in
//! [`TransportReport::recovery`] and [`TransportReport::proxy`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use durable::retry::{splitmix64, RetryPolicy};
use eri_server::{
    BreakerConfig, ClientConfig, Endpoint, InjectedLoad, OverloadInject,
    RemoteClient, ServerConfig, ServerHandle, TransportServer,
};
use eri_store::{StoreReader, StoreWriter};
use faults::overload::{OverloadConfig, OverloadInjector};
use faults::{FaultyProxy, ProxyFaultConfig, ProxyTallies, WireFault};
use pastri::BlockGeometry;

use crate::report::GateResult;
use crate::{expected_block, SoakError};

/// End-of-run gates over the wire workload. `None` disables a gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportSloGates {
    /// p99 of the `rpc.rtt_us` histogram (successful-attempt round-trip
    /// time) must be at or below this. A storm that served requests but
    /// left no samples fails it.
    pub rpc_p99_us: Option<u64>,
    /// Deadline overruns summed over the clients' own stats must not
    /// exceed this.
    pub max_deadline_exceeded: Option<u64>,
    /// Corrupt frames the clients detected, summed over their own
    /// stats, must not exceed this.
    pub max_frame_errors: Option<u64>,
    /// Overload mode: sheds per planned request must not exceed this
    /// rate (e.g. 0.5 = at most one shed per two planned requests).
    pub max_shed_rate: Option<f64>,
    /// Overload mode: p99 of the `server.queue_wait_us` histogram must
    /// be at or below this. A storm whose server admitted requests but
    /// left no samples fails it.
    pub queue_wait_p99_us: Option<u64>,
    /// Overload mode: total breaker `Opened` transitions across all
    /// clients must not exceed this.
    pub max_breaker_opened: Option<u64>,
}

/// Full configuration of one transport storm.
#[derive(Debug, Clone)]
pub struct TransportStormConfig {
    /// Master seed: request plan, proxy fault schedule, and client
    /// backoff jitter all derive from it.
    pub seed: u64,
    /// Working directory (created; replica store files live under it).
    pub dir: PathBuf,
    /// Replica servers, each over its own byte-identical store copy.
    pub replicas: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Batched read requests per client.
    pub requests_per_client: usize,
    /// Blocks per request (1..=max, seeded draw).
    pub max_batch: usize,
    /// Blocks per store.
    pub scale: usize,
    /// Geometry of every block.
    pub geometry: BlockGeometry,
    /// Error bound of the store.
    pub error_bound: f64,
    /// Per-replica wire fault plan (the proxy seed varies per replica).
    pub faults: ProxyFaultConfig,
    /// Per-attempt socket budget for the clients.
    pub attempt_timeout: Duration,
    /// Whole-call deadline for the clients.
    pub deadline: Duration,
    /// End-of-run gates.
    pub slo: TransportSloGates,
    /// Keep replica stores on disk after the run.
    pub keep_artifacts: bool,
    /// Overload mode: when set, the storm runs *without* wire-fault
    /// proxies (the wire is clean) and instead installs a seeded
    /// overload injector on the server plus circuit breakers in the
    /// clients, ending with a graceful drain instead of an abrupt stop.
    pub overload: Option<OverloadStormConfig>,
}

/// Settings for an overload storm (see [`TransportStormConfig::overload`]).
#[derive(Debug, Clone)]
pub struct OverloadStormConfig {
    /// Seeded forced-shed / slow-handler plan installed on the server.
    pub inject: OverloadConfig,
    /// Client circuit-breaker tuning. The defaults here are
    /// *count-driven* (infinite window, zero cooldown) so breaker
    /// transitions are a pure function of each client's outcome
    /// sequence — which the injector makes a pure function of the seed.
    pub breaker: BreakerConfig,
    /// Budget for the end-of-run graceful drain.
    pub drain_deadline: Duration,
}

impl Default for OverloadStormConfig {
    fn default() -> Self {
        OverloadStormConfig {
            inject: OverloadConfig::default(),
            breaker: BreakerConfig {
                failure_threshold: 3,
                window_us: u64::MAX,
                cooldown_us: 0,
            },
            drain_deadline: Duration::from_secs(10),
        }
    }
}

/// Deterministic overload accounting: in overload mode every one of
/// these is a pure function of the seed (asserted by the determinism
/// test at 1 and 4 rayon threads — the storm uses plain threads, so
/// the pool shape is irrelevant by construction, which is the point).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OverloadTallies {
    /// Structured `Overloaded` refusals observed by the clients.
    pub client_overloaded: u64,
    /// Requests the server shed (injected + organic).
    pub server_shed: u64,
    /// Requests the server admitted.
    pub server_admitted: u64,
    /// Admitted requests the server finished. Equal to
    /// `server_admitted` after a complete drain: nothing dropped.
    pub server_completed: u64,
    /// Requests refused because the server was draining.
    pub refused_draining: u64,
    /// Breaker transitions summed across clients in index order.
    pub breaker_opened: u64,
    pub breaker_half_opened: u64,
    pub breaker_closed: u64,
    /// The graceful drain finished inside its deadline.
    pub drain_complete: bool,
}

impl TransportStormConfig {
    /// A small, fast default wire storm in `dir`: two replicas, every
    /// fault class on every third connection, no gates set.
    #[must_use]
    pub fn storm(dir: &Path, seed: u64) -> Self {
        Self {
            seed,
            dir: dir.to_path_buf(),
            replicas: 2,
            clients: 4,
            requests_per_client: 24,
            max_batch: 4,
            scale: 16,
            geometry: BlockGeometry::new(4, 8),
            error_bound: 1e-9,
            faults: ProxyFaultConfig {
                faulty_every: 3,
                classes: WireFault::ALL.to_vec(),
                max_faults: 64,
                stall: Duration::from_millis(400),
                offset_base: 60,
                offset_window: 512,
            },
            attempt_timeout: Duration::from_millis(250),
            deadline: Duration::from_secs(20),
            slo: TransportSloGates::default(),
            keep_artifacts: false,
            overload: None,
        }
    }

    /// A small, fast default *overload* storm in `dir`: one replica
    /// (no wire faults), seeded forced sheds + slow handlers on the
    /// server, circuit breakers in the clients, graceful drain at the
    /// end. One replica because hedged failover racing half-open
    /// probes is genuinely timing-dependent — multi-replica breaker
    /// behaviour is covered by directed tests; the storm's job is
    /// bit-identical tallies.
    #[must_use]
    pub fn overload_storm(dir: &Path, seed: u64) -> Self {
        Self {
            replicas: 1,
            overload: Some(OverloadStormConfig::default()),
            ..Self::storm(dir, seed)
        }
    }
}

/// Deterministic accounting: pure functions of the seed when the run
/// passes (every planned block must be served).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportTallies {
    /// Requests in the plan (clients × requests_per_client).
    pub requests_planned: u64,
    /// Requests every block of which came back clean.
    pub requests_ok: u64,
    /// Individual blocks requested across all batches.
    pub blocks_requested: u64,
    /// Blocks served byte-identical to the direct-read ground truth.
    pub blocks_served: u64,
    /// Blocks a request failed to bring back — data loss.
    pub lost_blocks: u64,
    /// Blocks served with the wrong bits — silent corruption that beat
    /// the frame CRC and the store parity. Always data loss.
    pub value_mismatches: u64,
    /// splitmix64 fold of every served value's bit pattern, folded per
    /// client in request order, then across clients in index order.
    pub value_sig: u64,
}

/// What one client thread saw, folded into the report.
#[derive(Debug, Default, Clone, Copy)]
struct ClientOutcome {
    requests_ok: u64,
    blocks_requested: u64,
    blocks_served: u64,
    lost_blocks: u64,
    value_mismatches: u64,
    sig: u64,
    stats: eri_server::ClientStats,
}

/// Aggregated client recovery counters (timing-dependent).
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryTallies {
    pub retries: u64,
    pub hedges: u64,
    pub frame_errors: u64,
    pub deadline_exceeded: u64,
}

/// The complete outcome of one transport storm.
#[derive(Debug, Clone)]
pub struct TransportReport {
    pub seed: u64,
    /// Deterministic accounting (see [`TransportTallies`]).
    pub tallies: TransportTallies,
    /// What the clients had to do to get there (timing-dependent).
    pub recovery: RecoveryTallies,
    /// What the proxies injected, summed across replicas
    /// (timing-dependent: connection counts vary with retry timing).
    pub proxy: ProxyTallies,
    /// Every configured gate, evaluated.
    pub gates: Vec<GateResult>,
    /// p99 of `rpc.rtt_us`, when any request succeeded.
    pub rpc_p99_us: Option<u64>,
    /// Overload-mode accounting (seed-deterministic); `None` in
    /// wire-fault mode.
    pub overload: Option<OverloadTallies>,
    /// p99 of `server.queue_wait_us` (overload mode).
    pub queue_wait_p99_us: Option<u64>,
    /// Wall time of the whole storm.
    pub wall: Duration,
}

impl TransportReport {
    /// Every planned block served, byte-identical.
    #[must_use]
    pub fn zero_data_loss(&self) -> bool {
        self.tallies.lost_blocks == 0
            && self.tallies.value_mismatches == 0
            && self.tallies.requests_ok == self.tallies.requests_planned
    }

    /// Every configured gate held.
    #[must_use]
    pub fn all_gates_pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Overload-mode soundness: the drain finished with the books
    /// balanced (no admitted request dropped) and every server-side
    /// shed surfaced at a client as a structured `Overloaded` error —
    /// never a silent timeout. Trivially true in wire-fault mode.
    #[must_use]
    pub fn overload_sound(&self) -> bool {
        self.overload.is_none_or(|o| {
            o.drain_complete
                && o.server_admitted == o.server_completed
                && o.client_overloaded == o.server_shed
        })
    }

    /// The storm's overall verdict.
    #[must_use]
    pub(crate) fn passed(&self) -> bool {
        self.zero_data_loss() && self.all_gates_pass() && self.overload_sound()
    }

    /// Machine-readable report (`BENCH_transport_soak.json` by default):
    /// the `"tallies"` line is bit-identical across same-seed runs;
    /// `"recovery"`, `"proxy"`, `"slo"`, and `"timing"` carry the
    /// run-varying numbers.
    #[must_use]
    pub fn to_json(&self, cfg: &TransportStormConfig) -> String {
        let t = &self.tallies;
        let r = &self.recovery;
        let p = &self.proxy;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"transport_soak\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"config\": {{\"replicas\": {}, \"clients\": {}, \"requests_per_client\": {}, \"max_batch\": {}, \"scale\": {}, \"geometry\": [{}, {}], \"faulty_every\": {}, \"max_faults\": {}}},\n",
            cfg.replicas,
            cfg.clients,
            cfg.requests_per_client,
            cfg.max_batch,
            cfg.scale,
            cfg.geometry.num_subblocks,
            cfg.geometry.subblock_size,
            cfg.faults.faulty_every,
            cfg.faults.max_faults,
        ));
        s.push_str(&format!(
            "  \"tallies\": {{\"requests_planned\": {}, \"requests_ok\": {}, \"blocks_requested\": {}, \"blocks_served\": {}, \"lost_blocks\": {}, \"value_mismatches\": {}, \"value_sig\": {}}},\n",
            t.requests_planned,
            t.requests_ok,
            t.blocks_requested,
            t.blocks_served,
            t.lost_blocks,
            t.value_mismatches,
            t.value_sig,
        ));
        s.push_str(&format!(
            "  \"recovery\": {{\"retries\": {}, \"hedges\": {}, \"frame_errors\": {}, \"deadline_exceeded\": {}}},\n",
            r.retries, r.hedges, r.frame_errors, r.deadline_exceeded,
        ));
        s.push_str(&format!(
            "  \"proxy\": {{\"conns\": {}, \"truncates\": {}, \"corrupts\": {}, \"drops\": {}, \"stalls\": {}, \"resets\": {}}},\n",
            p.conns, p.truncates, p.corrupts, p.drops, p.stalls, p.resets,
        ));
        if let Some(o) = &self.overload {
            // Like "tallies": bit-identical across same-seed runs.
            s.push_str(&format!(
                "  \"overload\": {{\"client_overloaded\": {}, \"server_shed\": {}, \"server_admitted\": {}, \"server_completed\": {}, \"refused_draining\": {}, \"breaker_opened\": {}, \"breaker_half_opened\": {}, \"breaker_closed\": {}, \"drain_complete\": {}}},\n",
                o.client_overloaded,
                o.server_shed,
                o.server_admitted,
                o.server_completed,
                o.refused_draining,
                o.breaker_opened,
                o.breaker_half_opened,
                o.breaker_closed,
                o.drain_complete,
            ));
        }
        s.push_str("  \"slo\": [");
        for (i, g) in self.gates.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"gate\": \"{}\", \"threshold\": {}, \"actual\": {}, \"pass\": {}}}",
                g.gate,
                g.threshold,
                g.actual.map_or_else(|| "null".to_string(), |v| v.to_string()),
                g.pass,
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"timing\": {{\"wall_s\": {:.3}, \"rpc_p99_us\": {}}},\n",
            self.wall.as_secs_f64(),
            self.rpc_p99_us.map_or_else(|| "null".to_string(), |v| v.to_string()),
        ));
        s.push_str(&format!("  \"pass\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

/// The planned batch for `(client, request)`: a pure function of the
/// seed, independent of execution order.
fn planned_batch(cfg: &TransportStormConfig, client: usize, request: usize) -> Vec<u64> {
    let base = splitmix64(cfg.seed ^ splitmix64(((client as u64) << 20) | (request as u64 + 1)));
    let n = (splitmix64(base ^ 0xBA7C) % cfg.max_batch.max(1) as u64) as usize + 1;
    (0..n)
        .map(|k| splitmix64(base ^ (k as u64 + 1)) % cfg.scale as u64)
        .collect()
}

/// Runs the configured transport storm: build replicas, serve them
/// through fault proxies, storm them with concurrent clients, verify
/// every served block against ground truth, evaluate the gates.
/// Resets and enables telemetry for the run (restoring the previous
/// enablement on exit), so the `rpc.*` gates see exactly this storm.
pub fn run_transport(cfg: &TransportStormConfig) -> Result<TransportReport, SoakError> {
    if cfg.replicas == 0 || cfg.clients == 0 || cfg.scale == 0 {
        return Err(SoakError::Config("replicas, clients, and scale must be at least 1"));
    }
    if cfg.requests_per_client == 0 || cfg.max_batch == 0 {
        return Err(SoakError::Config("requests_per_client and max_batch must be at least 1"));
    }
    std::fs::create_dir_all(&cfg.dir)?;

    let was_enabled = telemetry::is_enabled();
    telemetry::reset();
    telemetry::set_enabled(true);
    let started = Instant::now();
    let result = run_transport_inner(cfg, started);
    telemetry::set_enabled(was_enabled);
    result
}

fn run_transport_inner(
    cfg: &TransportStormConfig,
    started: Instant,
) -> Result<TransportReport, SoakError> {
    // Replica stores: write the first, byte-copy the rest.
    let store_path = |r: usize| cfg.dir.join(format!("replica-{r:02}.eristore"));
    {
        let mut w = StoreWriter::create(&store_path(0), cfg.geometry, cfg.error_bound)
            .map_err(|e| SoakError::Io(std::io::Error::other(e.to_string())))?;
        for b in 0..cfg.scale {
            w.append_block(&expected_block(cfg.geometry, 0, b))
                .map_err(|e| SoakError::Io(std::io::Error::other(e.to_string())))?;
        }
        w.finish()
            .map_err(|e| SoakError::Io(std::io::Error::other(e.to_string())))?;
    }
    for r in 1..cfg.replicas {
        std::fs::copy(store_path(0), store_path(r))?;
    }

    // Ground truth: what a direct reader serves (post-compression bits).
    let direct = StoreReader::open(&store_path(0))
        .map_err(|e| SoakError::Io(std::io::Error::other(e.to_string())))?;
    let truth: Vec<Vec<u64>> = (0..cfg.scale)
        .map(|b| {
            direct
                .read_block(b)
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .map_err(|e| SoakError::Io(std::io::Error::other(e.to_string())))
        })
        .collect::<Result<_, _>>()?;
    drop(direct);

    // Servers, one per replica. Wire-fault mode interposes a seeded
    // fault proxy per replica; overload mode serves on a clean wire
    // and instead installs the seeded overload injector in-process.
    // The server's default admission limits are generous enough that
    // the only sheds in the storm are the injected ones (organic
    // shedding is exercised by directed admission tests instead —
    // mixing the two would make the tallies timing-dependent).
    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    let mut endpoints = Vec::new();
    for r in 0..cfg.replicas {
        let handle = Arc::new(
            ServerHandle::open(&[store_path(r)], &ServerConfig::default())
                .map_err(|e| SoakError::Io(std::io::Error::other(e.to_string())))?,
        );
        let inject = cfg.overload.as_ref().map(|o| {
            let injector = OverloadInjector::new(
                splitmix64(cfg.seed ^ ((r as u64 + 1) * 0x0FE2_10AD)),
                o.inject.clone(),
            );
            Arc::new(move |key: u64, attempt: u32| {
                let d = injector.decide(key, attempt);
                InjectedLoad { shed: d.shed, retry_after: d.retry_after, delay: d.delay }
            }) as Arc<dyn OverloadInject>
        });
        let srv = Arc::new(TransportServer::bind_with(
            &Endpoint::parse("tcp:127.0.0.1:0").expect("static endpoint"),
            handle,
            inject,
        )?);
        let Endpoint::Tcp(addr) = srv.local_endpoint() else { unreachable!() };
        let stop = srv.stop_handle();
        let jh = Arc::clone(&srv).spawn(None);
        if cfg.overload.is_some() {
            endpoints.push(Endpoint::Tcp(addr));
        } else {
            let proxy = FaultyProxy::start(
                &addr,
                splitmix64(cfg.seed ^ ((r as u64 + 1) * 0x9E37_79B9)),
                cfg.faults.clone(),
            )?;
            endpoints.push(Endpoint::Tcp(proxy.addr()));
            proxies.push(proxy);
        }
        servers.push((stop, jh));
    }

    // The storm: plain threads (client concurrency must not depend on
    // the rayon pool shape — tallies stay seed-pure either way).
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..cfg.clients {
            let endpoints = endpoints.clone();
            let truth = &truth;
            handles.push(scope.spawn(move || {
                let ccfg = ClientConfig {
                    deadline: cfg.deadline,
                    attempt_timeout: cfg.attempt_timeout,
                    connect_timeout: cfg.attempt_timeout.max(Duration::from_millis(250)),
                    retry: RetryPolicy {
                        max_retries: 10,
                        initial_backoff: Duration::from_micros(200),
                        max_backoff: Duration::from_millis(10),
                        jitter_seed: Some(splitmix64(cfg.seed ^ (c as u64) << 33)),
                    },
                    // Wire-fault mode runs breaker-less so its tallies
                    // stay bit-identical to the pre-breaker baseline;
                    // overload mode turns it on with count-driven
                    // tuning (see OverloadStormConfig).
                    breaker: cfg.overload.as_ref().map(|o| o.breaker.clone()),
                    ..ClientConfig::default()
                };
                let mut o = ClientOutcome {
                    sig: splitmix64(cfg.seed ^ (c as u64) << 17),
                    ..ClientOutcome::default()
                };
                let mut client = match RemoteClient::connect(&endpoints, ccfg) {
                    Ok(cl) => cl,
                    Err(_) => {
                        // Even the handshake failed past its retry
                        // budget: every planned block is lost.
                        for rq in 0..cfg.requests_per_client {
                            o.blocks_requested += planned_batch(cfg, c, rq).len() as u64;
                        }
                        o.lost_blocks = o.blocks_requested;
                        return o;
                    }
                };
                for rq in 0..cfg.requests_per_client {
                    let ids = planned_batch(cfg, c, rq);
                    o.blocks_requested += ids.len() as u64;
                    match client.read_blocks_strict(&ids) {
                        Ok(blocks) => {
                            let mut clean = true;
                            for (b, &id) in blocks.iter().zip(&ids) {
                                let want = &truth[id as usize];
                                if b.len() == want.len()
                                    && b.iter().zip(want).all(|(v, w)| v.to_bits() == *w)
                                {
                                    o.blocks_served += 1;
                                    for v in b {
                                        o.sig = splitmix64(o.sig ^ v.to_bits());
                                    }
                                } else {
                                    o.value_mismatches += 1;
                                    clean = false;
                                }
                            }
                            o.requests_ok += u64::from(clean);
                        }
                        Err(_) => o.lost_blocks += ids.len() as u64,
                    }
                }
                o.stats = client.stats();
                o
            }));
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Teardown before reading the gates, so every proxy tally is final.
    // Overload mode drains gracefully — the books it returns are the
    // proof that no admitted request was dropped; fault mode keeps the
    // abrupt stop it always had.
    let mut proxy_total = ProxyTallies::default();
    for p in proxies {
        proxy_total.add(&p.stop());
    }
    let mut admission_total = eri_server::admission::AdmissionStats::default();
    let mut drain_complete = true;
    for (stop, jh) in servers {
        let stats = match &cfg.overload {
            Some(o) => {
                let outcome = stop.drain(o.drain_deadline);
                drain_complete &= outcome.complete;
                outcome.stats
            }
            None => {
                stop.stop();
                stop.admission().stats()
            }
        };
        admission_total.admitted += stats.admitted;
        admission_total.completed += stats.completed;
        admission_total.shed += stats.shed;
        admission_total.refused_draining += stats.refused_draining;
        let _ = jh.join().expect("server thread");
    }
    if !cfg.keep_artifacts {
        for r in 0..cfg.replicas {
            let _ = std::fs::remove_file(store_path(r));
        }
    }

    // Fold in client-index order: value_sig stays seed-deterministic.
    let mut tallies = TransportTallies {
        requests_planned: (cfg.clients * cfg.requests_per_client) as u64,
        value_sig: splitmix64(cfg.seed),
        ..TransportTallies::default()
    };
    let mut recovery = RecoveryTallies::default();
    let mut overload_t = OverloadTallies::default();
    for o in &outcomes {
        tallies.requests_ok += o.requests_ok;
        tallies.blocks_requested += o.blocks_requested;
        tallies.blocks_served += o.blocks_served;
        tallies.lost_blocks += o.lost_blocks;
        tallies.value_mismatches += o.value_mismatches;
        tallies.value_sig = splitmix64(tallies.value_sig ^ o.sig);
        recovery.retries += o.stats.retries;
        recovery.hedges += o.stats.hedges;
        recovery.frame_errors += o.stats.frame_errors;
        recovery.deadline_exceeded += o.stats.deadline_exceeded;
        overload_t.client_overloaded += o.stats.overloaded;
        overload_t.breaker_opened += o.stats.breaker_opened;
        overload_t.breaker_half_opened += o.stats.breaker_half_opened;
        overload_t.breaker_closed += o.stats.breaker_closed;
    }
    overload_t.server_shed = admission_total.shed;
    overload_t.server_admitted = admission_total.admitted;
    overload_t.server_completed = admission_total.completed;
    overload_t.refused_draining = admission_total.refused_draining;
    overload_t.drain_complete = drain_complete;
    let overload = cfg.overload.as_ref().map(|_| overload_t);

    let snap = telemetry::snapshot();
    let rpc_p99_us = snap
        .histograms
        .iter()
        .find(|h| h.name == "rpc.rtt_us")
        .and_then(|h| h.percentile_us(0.99));
    let queue_wait_p99_us = snap
        .histograms
        .iter()
        .find(|h| h.name == "server.queue_wait_us")
        .and_then(|h| h.percentile_us(0.99));
    let mut gates = Vec::new();
    if let Some(limit) = cfg.slo.rpc_p99_us {
        let actual = rpc_p99_us.map(|v| v as f64);
        gates.push(GateResult {
            gate: "rpc_p99_us",
            threshold: limit as f64,
            actual,
            // Served requests without samples fail: the histogram came
            // from the process-wide recorder, and something reset it.
            pass: actual.map_or(tallies.requests_ok == 0, |v| v <= limit as f64),
        });
    }
    if let Some(max) = cfg.slo.max_deadline_exceeded {
        gates.push(GateResult {
            gate: "max_deadline_exceeded",
            threshold: max as f64,
            actual: Some(recovery.deadline_exceeded as f64),
            pass: recovery.deadline_exceeded <= max,
        });
    }
    if let Some(max) = cfg.slo.max_frame_errors {
        gates.push(GateResult {
            gate: "max_frame_errors",
            threshold: max as f64,
            actual: Some(recovery.frame_errors as f64),
            pass: recovery.frame_errors <= max,
        });
    }
    if let Some(limit) = cfg.slo.max_shed_rate {
        let actual = overload_t.server_shed as f64 / tallies.requests_planned.max(1) as f64;
        gates.push(GateResult {
            gate: "max_shed_rate",
            threshold: limit,
            actual: Some(actual),
            pass: actual <= limit,
        });
    }
    if let Some(limit) = cfg.slo.queue_wait_p99_us {
        let actual = queue_wait_p99_us.map(|v| v as f64);
        gates.push(GateResult {
            gate: "queue_wait_p99_us",
            threshold: limit as f64,
            actual,
            pass: actual.map_or(overload_t.server_admitted == 0, |v| v <= limit as f64),
        });
    }
    if let Some(max) = cfg.slo.max_breaker_opened {
        gates.push(GateResult {
            gate: "max_breaker_opened",
            threshold: max as f64,
            actual: Some(overload_t.breaker_opened as f64),
            pass: overload_t.breaker_opened <= max,
        });
    }

    Ok(TransportReport {
        seed: cfg.seed,
        tallies,
        recovery,
        proxy: proxy_total,
        gates,
        rpc_p99_us,
        overload,
        queue_wait_p99_us,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("soak-transport-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn storm_is_zero_loss_and_seed_deterministic() {
        let mut cfg = TransportStormConfig::storm(&tmp("det-a"), 0x50AF);
        cfg.clients = 3;
        cfg.requests_per_client = 10;
        let a = run_transport(&cfg).unwrap();
        assert!(a.zero_data_loss(), "{:?}", a.tallies);
        assert!(a.proxy.total() > 0, "the proxy must actually inject: {:?}", a.proxy);

        let mut cfg_b = cfg.clone();
        cfg_b.dir = tmp("det-b");
        let b = run_transport(&cfg_b).unwrap();
        assert_eq!(a.tallies, b.tallies, "tallies are a pure function of the seed");
    }

    #[test]
    fn sequential_storm_fires_every_class_and_replays_proxy_counts() {
        // One sequential client, every connection faulted, capped at one
        // class rotation per replica: the connection order, and so every
        // fault, is a pure function of the seed.
        let mut cfg = TransportStormConfig::storm(&tmp("seq-a"), 42);
        cfg.clients = 1;
        cfg.requests_per_client = 64;
        cfg.scale = 24;
        cfg.faults.faulty_every = 1;
        cfg.faults.max_faults = 5;
        let a = run_transport(&cfg).unwrap();
        assert!(a.zero_data_loss(), "{:?}", a.tallies);
        // At most one fault per class per replica fits the cap, so a
        // sum equal to the replica count means every class fired on
        // every replica.
        let p = a.proxy;
        let replicas = cfg.replicas as u64;
        for (class, n) in [
            ("truncates", p.truncates),
            ("corrupts", p.corrupts),
            ("drops", p.drops),
            ("stalls", p.stalls),
            ("resets", p.resets),
        ] {
            assert_eq!(n, replicas, "{class} must fire once per replica: {p:?}");
        }

        let mut cfg_b = cfg.clone();
        cfg_b.dir = tmp("seq-b");
        let b = run_transport(&cfg_b).unwrap();
        assert_eq!(a.tallies, b.tallies, "tallies are a pure function of the seed");
        assert_eq!(a.proxy, b.proxy, "a sequential client replays the proxy counts");
    }

    #[test]
    fn planned_batches_are_pure() {
        let cfg = TransportStormConfig::storm(Path::new("/nonexistent"), 7);
        assert_eq!(planned_batch(&cfg, 2, 5), planned_batch(&cfg, 2, 5));
        assert_ne!(planned_batch(&cfg, 0, 0), planned_batch(&cfg, 1, 0));
        for id in planned_batch(&cfg, 3, 9) {
            assert!((id as usize) < cfg.scale);
        }
    }

    #[test]
    fn overload_storm_is_sound_and_seed_deterministic() {
        let mut cfg = TransportStormConfig::overload_storm(&tmp("ovl-a"), 0x0F_F10AD);
        cfg.clients = 3;
        cfg.requests_per_client = 12;
        let a = run_transport(&cfg).unwrap();
        // Zero data loss even under forced sheds: every request rides
        // its retries through to byte-identical service.
        assert!(a.zero_data_loss(), "{:?}", a.tallies);
        let ao = a.overload.expect("overload tallies present");
        assert!(ao.server_shed > 0, "the injector must actually shed: {ao:?}");
        // Every shed surfaced as a structured client-side refusal and
        // the drain books balance (nothing admitted was dropped).
        assert!(a.overload_sound(), "{ao:?}");
        assert!(ao.drain_complete);
        assert_eq!(ao.server_admitted, ao.server_completed);
        // The breaker actually cycled: forced-shed bursts trip it open
        // and the following success closes it.
        assert!(ao.breaker_opened > 0, "{ao:?}");
        assert_eq!(ao.breaker_opened, ao.breaker_half_opened, "every open probes");
        assert_eq!(ao.breaker_half_opened, ao.breaker_closed, "every probe closes");

        let mut cfg_b = cfg.clone();
        cfg_b.dir = tmp("ovl-b");
        let b = run_transport(&cfg_b).unwrap();
        assert_eq!(a.tallies, b.tallies, "tallies are a pure function of the seed");
        assert_eq!(
            a.overload, b.overload,
            "shed/breaker tallies are a pure function of the seed"
        );
    }

    #[test]
    fn overload_json_has_a_deterministic_overload_line() {
        let mut cfg = TransportStormConfig::overload_storm(&tmp("ovl-json"), 0xBEEF);
        cfg.clients = 2;
        cfg.requests_per_client = 6;
        cfg.slo.max_shed_rate = Some(1.0);
        cfg.slo.queue_wait_p99_us = Some(5_000_000);
        cfg.slo.max_breaker_opened = Some(10_000);
        let r = run_transport(&cfg).unwrap();
        let json = r.to_json(&cfg);
        assert!(json.contains("\"overload\""), "{json}");
        assert!(json.contains("\"drain_complete\": true"), "{json}");
        for gate in ["max_shed_rate", "queue_wait_p99_us", "max_breaker_opened"] {
            assert!(json.contains(gate), "{json}");
        }
    }

    #[test]
    fn impossible_gate_fails_the_run() {
        let mut cfg = TransportStormConfig::storm(&tmp("gate"), 11);
        cfg.clients = 2;
        cfg.requests_per_client = 6;
        cfg.slo.rpc_p99_us = Some(0);
        let r = run_transport(&cfg).unwrap();
        assert!(r.zero_data_loss());
        assert!(!r.all_gates_pass(), "{:?}", r.gates);
        assert!(!r.passed());
    }
}
